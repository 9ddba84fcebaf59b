#ifndef ARDA_PERFBENCH_BENCH_STATS_H_
#define ARDA_PERFBENCH_BENCH_STATS_H_

// The benchmark's own arithmetic: percentiles, the failure share and the
// ground-truth scoring of an augmentation. Kept apart from the workloads
// so perfbench_selftest can check it on hand-built inputs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "discovery/repository.h"

namespace arda::perfbench {

/// Median of `values` (mean of the two middle samples for an even count);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Geometric mean of `values`, which must be positive; 0 for an empty
/// vector.
double GeometricMean(const std::vector<double>& values);

/// A latency tail read at the highest whole percentile (at most
/// `max_percent`) that still has at least `min_beyond` samples above its
/// nearest rank (the smallest sample with at least that share of the
/// samples at or below it), so the tail never rests on a handful of
/// samples.
struct Tail {
  bool ok = false;      // false when even the median lacks the samples
  int percent = 0;      // the percentile used, e.g. 90
  double value = 0.0;   // the sample at that rank
  size_t samples = 0;   // samples considered
  size_t beyond = 0;    // samples strictly above the rank
};
Tail TailPercentile(std::vector<double> values, int max_percent = 90,
                    size_t min_beyond = 10);

/// Failed operations (errors, `overloaded` replies, report mismatches)
/// over operations attempted; 0 when nothing was attempted.
double FailedShare(size_t failed, size_t attempted);

/// Maps an augmented column back to the repository table it came from.
/// ARDA keeps a joined column under its source name unless that name is
/// already taken, in which case it is renamed "<table>.<column>" (plus a
/// "_<n>" suffix on a repeated collision).
class ColumnAttributor {
 public:
  /// Indexes every column of every table in `repo` except `base_table`.
  ColumnAttributor(const discovery::DataRepository& repo,
                   const std::string& base_table);

  /// The source table of `column`; "" when no table or more than one
  /// table could have produced it.
  std::string SourceTable(const std::string& column) const;

 private:
  std::map<std::string, std::vector<std::string>> tables_by_column_;
  std::vector<std::string> tables_;
};

/// Ground-truth counts of one augmentation.
struct Quality {
  size_t signal_total = 0;   // signal tables the scenario plants
  size_t signal_kept = 0;    // ... with a column in the augmented table
  size_t noise_total = 0;    // non-signal tables the run joined
  size_t noise_kept = 0;     // ... with a column in the augmented table
  size_t unattributed = 0;   // kept columns with no unique source table

  Quality& operator+=(const Quality& other);
  double SignalRecall() const;
  double NoiseKept() const;
};

/// Scores one augmentation. `augmented_columns` is the augmented table's
/// schema, `base_columns` the base table's, `joined_tables` every table
/// the run joined (the union of its batch logs) and `signal_tables` the
/// scenario's ground truth.
Quality ScoreAugmentation(const std::vector<std::string>& augmented_columns,
                          const std::vector<std::string>& base_columns,
                          const std::vector<std::string>& joined_tables,
                          const std::vector<std::string>& signal_tables,
                          const ColumnAttributor& attributor);

/// FNV-1a 64-bit digest, printed as 16 hex digits.
std::string Digest(const std::string& bytes);

}  // namespace arda::perfbench

#endif  // ARDA_PERFBENCH_BENCH_STATS_H_
