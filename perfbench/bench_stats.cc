#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "dataframe/column_stats.h"
#include "util/string_util.h"

namespace arda::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

// 0-based nearest-rank index of percentile `percent` among `n` samples.
size_t RankIndex(size_t n, int percent) {
  const size_t rank = (static_cast<size_t>(percent) * n + 99) / 100;
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

Tail TailPercentile(std::vector<double> values, int max_percent,
                    size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (int percent = max_percent; percent >= 50; --percent) {
    const size_t index = RankIndex(values.size(), percent);
    const size_t beyond = values.size() - 1 - index;
    if (beyond >= min_beyond) {
      tail.ok = true;
      tail.percent = percent;
      tail.value = values[index];
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

double FailedShare(size_t failed, size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

ColumnAttributor::ColumnAttributor(const discovery::DataRepository& repo,
                                   const std::string& base_table) {
  for (const std::string& table : repo.Names()) {
    if (table == base_table) continue;
    tables_.push_back(table);
    for (const std::string& column : repo.GetOrDie(table).ColumnNames()) {
      tables_by_column_[column].push_back(table);
    }
  }
}

std::string ColumnAttributor::SourceTable(const std::string& column) const {
  auto it = tables_by_column_.find(column);
  if (it != tables_by_column_.end()) {
    return it->second.size() == 1 ? it->second.front() : "";
  }
  // Collision-renamed: "<table>.<column>" or "<table>.<column>_<n>". The
  // longest table name that prefixes the column wins, so a table whose
  // name contains a dot still resolves.
  std::string best;
  for (const std::string& table : tables_) {
    if (table.size() > best.size() && StartsWith(column, table + ".")) {
      best = table;
    }
  }
  return best;
}

Quality& Quality::operator+=(const Quality& other) {
  signal_total += other.signal_total;
  signal_kept += other.signal_kept;
  noise_total += other.noise_total;
  noise_kept += other.noise_kept;
  unattributed += other.unattributed;
  return *this;
}

double Quality::SignalRecall() const {
  return signal_total == 0 ? 0.0
                           : static_cast<double>(signal_kept) /
                                 static_cast<double>(signal_total);
}

double Quality::NoiseKept() const {
  return noise_total == 0 ? 0.0
                          : static_cast<double>(noise_kept) /
                                static_cast<double>(noise_total);
}

Quality ScoreAugmentation(const std::vector<std::string>& augmented_columns,
                          const std::vector<std::string>& base_columns,
                          const std::vector<std::string>& joined_tables,
                          const std::vector<std::string>& signal_tables,
                          const ColumnAttributor& attributor) {
  const std::set<std::string> base(base_columns.begin(), base_columns.end());
  const std::set<std::string> signal(signal_tables.begin(),
                                     signal_tables.end());
  std::set<std::string> kept;
  Quality quality;
  for (const std::string& column : augmented_columns) {
    if (base.count(column) > 0) continue;
    const std::string table = attributor.SourceTable(column);
    if (table.empty()) {
      ++quality.unattributed;
    } else {
      kept.insert(table);
    }
  }
  quality.signal_total = signal.size();
  for (const std::string& table : signal) {
    quality.signal_kept += kept.count(table);
  }
  const std::set<std::string> joined(joined_tables.begin(),
                                     joined_tables.end());
  for (const std::string& table : joined) {
    if (signal.count(table) > 0) continue;
    ++quality.noise_total;
    quality.noise_kept += kept.count(table);
  }
  // A kept table the run never logged as joined still counts as noise
  // kept: the denominator must cover the numerator.
  for (const std::string& table : kept) {
    if (signal.count(table) == 0 && joined.count(table) == 0) {
      ++quality.noise_total;
      ++quality.noise_kept;
    }
  }
  return quality;
}

std::string Digest(const std::string& bytes) {
  return StrFormat("%016llx", static_cast<unsigned long long>(
                                  df::StatsFnv1a64(bytes)));
}

}  // namespace arda::perfbench
