#ifndef ARDA_DATAFRAME_KEY_ENCODER_H_
#define ARDA_DATAFRAME_KEY_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dataframe/data_frame.h"

namespace arda::df {

/// Dictionary-encodes composite row keys over a set of columns into dense
/// group ids, replacing the legacy per-row `'\x1f'`-joined string keys on
/// the join/group-by hot paths (see DESIGN.md "Interned join keys").
///
/// Key equality matches the legacy string composition: doubles compare by
/// their "%.10g" rendering (values that round to the same 10 significant
/// digits collide, exactly as before), int64 by "%lld", strings natively,
/// and null is a per-column value distinct from everything else. Each
/// distinct column value is rendered and hashed once (interned); rows then
/// carry small integer ids and composite lookups hash fixed-width id
/// tuples instead of heap strings. All hashing goes through flat
/// open-addressing tables, so the steady state allocates nothing per row.
///
/// Group ids are dense and numbered in first-occurrence row order, which
/// is what GroupByAggregate's output ordering and the hash-join
/// keep-first-row rule both need.
///
/// Intentional divergence from the legacy keys (strictly more precise):
/// column-wise comparison cannot conflate distinct tuples whose rendered
/// values embed the separator byte '\x1f' or the literal null marker
/// "\x1e<null>", which the concatenated form could.
class KeyEncoder {
 public:
  static constexpr uint64_t kMiss = ~0ull;

  struct Options {
    /// Per-column bucket granularity applied on the *probe* side only:
    /// a probe value v of a numeric column with granularity g > 0 is
    /// keyed as "%.10g" of floor(v / g) * g (the time-resampled hard-join
    /// bucketing). Empty means no bucketing anywhere.
    std::vector<double> probe_granularity;
    /// Types of the columns that Probe() will be called with, aligned
    /// with the build columns. Empty means "same as the build columns".
    /// An int64 build column only uses the fast native dictionary when
    /// the probe side is also int64 and unbucketed; any mismatch falls
    /// back to the rendered-string dictionary, which reproduces the
    /// legacy cross-type comparisons (e.g. int64 "42" == double "42").
    std::vector<DataType> probe_types;
  };

  /// Builds the dictionaries and group ids over `frame[col_idx]`.
  KeyEncoder(const DataFrame& frame, const std::vector<size_t>& col_idx,
             const Options& options = {});
  KeyEncoder(const DataFrame& frame, const std::vector<std::string>& columns,
             const Options& options = {});

  size_t num_groups() const { return group_first_row_.size(); }
  /// Number of build rows.
  size_t num_rows() const { return row_group_.size(); }
  /// Dense group id of build row r, in first-occurrence order.
  uint64_t GroupOf(size_t row) const { return row_group_[row]; }
  /// All build-row group ids as a dense array (GroupByAggregate indexes
  /// this directly instead of calling GroupOf per row).
  const std::vector<uint64_t>& row_groups() const { return row_group_; }
  /// First build row of each group (the hash-join keep-first rule).
  const std::vector<size_t>& group_first_row() const {
    return group_first_row_;
  }
  bool HasDuplicates() const {
    return num_groups() < row_group_.size();
  }

  /// Encodes row `row` of `frame[col_idx]` (columns aligned with the build
  /// columns) against the build dictionaries without inserting. Returns
  /// the matching group id, or kMiss when any column value or the full
  /// tuple was never seen at build time.
  uint64_t Probe(const DataFrame& frame, const std::vector<size_t>& col_idx,
                 size_t row) const;
  uint64_t Probe(const DataFrame& frame,
                 const std::vector<std::string>& columns, size_t row) const;

  /// Batch Probe over every row of `frame[col_idx]`: out[r] receives the
  /// group id of row r, or kMiss. Identical results to calling Probe per
  /// row (pinned by the golden join outputs): every lookup is the same
  /// FindSlot walk, and only the tuple hashes are computed column-wise
  /// (simd::TupleHashBatch).
  void ProbeAll(const DataFrame& frame, const std::vector<size_t>& col_idx,
                uint64_t* out) const;

 private:
  enum class Mode { kInt64, kString };

  /// Open-addressing (hash -> 32-bit id) table with linear probing. The
  /// caller verifies candidate ids against its own value storage, so two
  /// distinct keys with equal hashes simply occupy two slots.
  struct FlatTable {
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> ids;  // kEmpty marks a free slot
    size_t count = 0;
    static constexpr uint32_t kEmpty = ~0u;

    void Reserve(size_t expected);
    void Grow();
  };

  struct ColumnDict {
    Mode mode = Mode::kString;
    double probe_granularity = 0.0;
    FlatTable table;
    /// Value id (1-based; 0 is reserved for null) -> interned value, used
    /// to verify table candidates exactly.
    std::vector<int64_t> int_values;
    std::vector<std::string> str_values;

    /// Id of an interned value, or FlatTable::kEmpty when the build side
    /// never saw it.
    uint32_t FindInt(int64_t value) const;
    uint32_t FindString(std::string_view value) const;
  };

  void Build(const DataFrame& frame, const std::vector<size_t>& col_idx,
             const Options& options);
  /// Group id of the value-id tuple ids[0], ids[stride], ...,
  /// ids[(num_cols - 1) * stride] whose tuple hash is `hash`, or kMiss.
  uint64_t FindGroup(uint64_t hash, const uint32_t* ids,
                     size_t stride) const;

  std::vector<ColumnDict> dicts_;
  /// Flat key tuples, dicts_.size() ids per group, in group-id order.
  std::vector<uint32_t> tuple_store_;
  FlatTable groups_;
  std::vector<uint64_t> row_group_;
  std::vector<size_t> group_first_row_;
};

}  // namespace arda::df

#endif  // ARDA_DATAFRAME_KEY_ENCODER_H_
