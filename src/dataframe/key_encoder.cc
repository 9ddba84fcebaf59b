#include "dataframe/key_encoder.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "simd/simd.h"
#include "util/check.h"

namespace arda::df {

namespace {

// splitmix64 finalizer; also used to post-mix string hashes so linear
// probing sees well-spread bits.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashString(std::string_view s) {
  return Mix64(std::hash<std::string_view>{}(s));
}

// FNV-1a over a tuple of value ids.
uint64_t HashTuple(const uint32_t* ids, size_t count) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count; ++i) {
    h = (h ^ ids[i]) * 1099511628211ull;
  }
  return Mix64(h);
}

// Renders a non-null numeric value the way Column::ValueToString does
// ("%.10g" for doubles, "%lld" for int64), or the bucketed "%.10g" form
// when granularity > 0, into `buf` without heap allocation.
std::string_view RenderValue(const Column& col, size_t row, double granularity,
                             char* buf, size_t cap) {
  if (col.type() == DataType::kString) return col.StringAt(row);
  if (granularity > 0.0) {
    double v = std::floor(col.NumericAt(row) / granularity) * granularity;
    int len = std::snprintf(buf, cap, "%.10g", v);
    return std::string_view(buf, static_cast<size_t>(len));
  }
  int len = col.type() == DataType::kDouble
                ? std::snprintf(buf, cap, "%.10g", col.DoubleAt(row))
                : std::snprintf(buf, cap, "%lld",
                                static_cast<long long>(col.Int64At(row)));
  return std::string_view(buf, static_cast<size_t>(len));
}

std::vector<size_t> ResolveColumns(const DataFrame& frame,
                                   const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  idx.reserve(columns.size());
  for (const std::string& name : columns) {
    size_t i = frame.ColumnIndex(name);
    ARDA_CHECK(i != DataFrame::kNpos);
    idx.push_back(i);
  }
  return idx;
}

size_t NextPow2(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

constexpr uint32_t kEmptySlot = ~0u;  // == KeyEncoder::FlatTable::kEmpty

// Walks the probe sequence for `hash` until a slot verifies or a free
// slot is found; returns the slot index either way. `verify(id)` checks a
// candidate against the caller's value storage.
template <typename Verify>
size_t FindSlot(const std::vector<uint64_t>& hashes,
                const std::vector<uint32_t>& ids, uint64_t hash,
                Verify&& verify) {
  const size_t mask = hashes.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  while (ids[slot] != kEmptySlot) {
    if (hashes[slot] == hash && verify(ids[slot])) return slot;
    slot = (slot + 1) & mask;
  }
  return slot;
}

}  // namespace

void KeyEncoder::FlatTable::Reserve(size_t expected) {
  size_t cap = NextPow2(expected * 2);
  if (cap > hashes.size()) {
    ARDA_CHECK_EQ(count, 0u);
    hashes.assign(cap, 0);
    ids.assign(cap, kEmpty);
  }
}

void KeyEncoder::FlatTable::Grow() {
  std::vector<uint64_t> old_hashes = std::move(hashes);
  std::vector<uint32_t> old_ids = std::move(ids);
  size_t cap = old_hashes.empty() ? 16 : old_hashes.size() * 2;
  hashes.assign(cap, 0);
  ids.assign(cap, kEmpty);
  const size_t mask = cap - 1;
  for (size_t i = 0; i < old_hashes.size(); ++i) {
    if (old_ids[i] == kEmpty) continue;
    size_t slot = static_cast<size_t>(old_hashes[i]) & mask;
    while (ids[slot] != kEmpty) slot = (slot + 1) & mask;
    hashes[slot] = old_hashes[i];
    ids[slot] = old_ids[i];
  }
}

KeyEncoder::KeyEncoder(const DataFrame& frame,
                       const std::vector<size_t>& col_idx,
                       const Options& options) {
  Build(frame, col_idx, options);
}

KeyEncoder::KeyEncoder(const DataFrame& frame,
                       const std::vector<std::string>& columns,
                       const Options& options) {
  Build(frame, ResolveColumns(frame, columns), options);
}

void KeyEncoder::Build(const DataFrame& frame,
                       const std::vector<size_t>& col_idx,
                       const Options& options) {
  const size_t num_cols = col_idx.size();
  const size_t n = frame.NumRows();
  ARDA_CHECK(options.probe_granularity.empty() ||
             options.probe_granularity.size() == num_cols);
  ARDA_CHECK(options.probe_types.empty() ||
             options.probe_types.size() == num_cols);

  dicts_.resize(num_cols);
  for (size_t k = 0; k < num_cols; ++k) {
    const Column& col = frame.col(col_idx[k]);
    ColumnDict& dict = dicts_[k];
    dict.probe_granularity =
        options.probe_granularity.empty() ? 0.0 : options.probe_granularity[k];
    DataType probe_type =
        options.probe_types.empty() ? col.type() : options.probe_types[k];
    // The native int64 dictionary is only sound when both sides render as
    // "%lld"; any double or bucketed participant goes through rendered
    // strings so cross-representation equality matches the legacy keys.
    dict.mode = col.type() == DataType::kInt64 &&
                        probe_type == DataType::kInt64 &&
                        dict.probe_granularity <= 0.0
                    ? Mode::kInt64
                    : Mode::kString;
    dict.table.Reserve(n);
  }
  groups_.Reserve(n);

  row_group_.resize(n);
  tuple_store_.reserve(num_cols * 16);
  std::vector<uint32_t> ids(num_cols);
  char buf[64];
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < num_cols; ++k) {
      const Column& col = frame.col(col_idx[k]);
      ColumnDict& dict = dicts_[k];
      if (col.IsNull(r)) {
        ids[k] = 0;
        continue;
      }
      if (dict.mode == Mode::kInt64) {
        int64_t v = col.Int64At(r);
        uint64_t h = Mix64(static_cast<uint64_t>(v));
        size_t slot =
            FindSlot(dict.table.hashes, dict.table.ids, h, [&](uint32_t id) {
              return dict.int_values[id - 1] == v;
            });
        if (dict.table.ids[slot] == FlatTable::kEmpty) {
          dict.int_values.push_back(v);
          uint32_t id = static_cast<uint32_t>(dict.int_values.size());
          dict.table.hashes[slot] = h;
          dict.table.ids[slot] = id;
          if (++dict.table.count * 2 >= dict.table.hashes.size()) {
            dict.table.Grow();
          }
          ids[k] = id;
        } else {
          ids[k] = dict.table.ids[slot];
        }
      } else {
        std::string_view sv = RenderValue(col, r, 0.0, buf, sizeof(buf));
        uint64_t h = HashString(sv);
        size_t slot =
            FindSlot(dict.table.hashes, dict.table.ids, h, [&](uint32_t id) {
              return dict.str_values[id - 1] == sv;
            });
        if (dict.table.ids[slot] == FlatTable::kEmpty) {
          dict.str_values.emplace_back(sv);
          uint32_t id = static_cast<uint32_t>(dict.str_values.size());
          dict.table.hashes[slot] = h;
          dict.table.ids[slot] = id;
          if (++dict.table.count * 2 >= dict.table.hashes.size()) {
            dict.table.Grow();
          }
          ids[k] = id;
        } else {
          ids[k] = dict.table.ids[slot];
        }
      }
    }
    uint64_t h = HashTuple(ids.data(), num_cols);
    size_t slot =
        FindSlot(groups_.hashes, groups_.ids, h, [&](uint32_t gid) {
          const uint32_t* stored = tuple_store_.data() + gid * num_cols;
          for (size_t k = 0; k < num_cols; ++k) {
            if (stored[k] != ids[k]) return false;
          }
          return true;
        });
    uint64_t gid;
    if (groups_.ids[slot] == FlatTable::kEmpty) {
      gid = group_first_row_.size();
      groups_.hashes[slot] = h;
      groups_.ids[slot] = static_cast<uint32_t>(gid);
      tuple_store_.insert(tuple_store_.end(), ids.begin(), ids.end());
      group_first_row_.push_back(r);
      if (++groups_.count * 2 >= groups_.hashes.size()) groups_.Grow();
    } else {
      gid = groups_.ids[slot];
    }
    row_group_[r] = gid;
  }
}

uint32_t KeyEncoder::ColumnDict::FindInt(int64_t value) const {
  const size_t slot = FindSlot(
      table.hashes, table.ids, Mix64(static_cast<uint64_t>(value)),
      [&](uint32_t id) { return int_values[id - 1] == value; });
  return table.ids[slot];
}

uint32_t KeyEncoder::ColumnDict::FindString(std::string_view value) const {
  const size_t slot =
      FindSlot(table.hashes, table.ids, HashString(value),
               [&](uint32_t id) { return str_values[id - 1] == value; });
  return table.ids[slot];
}

uint64_t KeyEncoder::FindGroup(uint64_t hash, const uint32_t* ids,
                               size_t stride) const {
  const size_t num_cols = dicts_.size();
  const size_t slot =
      FindSlot(groups_.hashes, groups_.ids, hash, [&](uint32_t gid) {
        const uint32_t* stored = tuple_store_.data() + size_t{gid} * num_cols;
        for (size_t k = 0; k < num_cols; ++k) {
          if (stored[k] != ids[k * stride]) return false;
        }
        return true;
      });
  return groups_.ids[slot] == FlatTable::kEmpty ? kMiss : groups_.ids[slot];
}

uint64_t KeyEncoder::Probe(const DataFrame& frame,
                           const std::vector<size_t>& col_idx,
                           size_t row) const {
  const size_t num_cols = dicts_.size();
  ARDA_CHECK_EQ(col_idx.size(), num_cols);
  uint32_t stack_ids[16];
  std::vector<uint32_t> heap_ids;
  uint32_t* ids = stack_ids;
  if (num_cols > 16) {
    heap_ids.resize(num_cols);
    ids = heap_ids.data();
  }
  char buf[64];
  for (size_t k = 0; k < num_cols; ++k) {
    const Column& col = frame.col(col_idx[k]);
    const ColumnDict& dict = dicts_[k];
    if (col.IsNull(row)) {
      ids[k] = 0;
      continue;
    }
    const uint32_t id =
        dict.mode == Mode::kInt64
            ? dict.FindInt(col.Int64At(row))
            : dict.FindString(RenderValue(col, row, dict.probe_granularity,
                                          buf, sizeof(buf)));
    if (id == FlatTable::kEmpty) return kMiss;
    ids[k] = id;
  }
  return FindGroup(HashTuple(ids, num_cols), ids, 1);
}

uint64_t KeyEncoder::Probe(const DataFrame& frame,
                           const std::vector<std::string>& columns,
                           size_t row) const {
  return Probe(frame, ResolveColumns(frame, columns), row);
}

void KeyEncoder::ProbeAll(const DataFrame& frame,
                          const std::vector<size_t>& col_idx,
                          uint64_t* out) const {
  const size_t num_cols = dicts_.size();
  ARDA_CHECK_EQ(col_idx.size(), num_cols);
  const size_t n = frame.NumRows();
  if (n == 0) return;

  // Column-major value ids (ids[k * n + r]), the layout TupleHashBatch
  // reads with contiguous vector loads. Nulls keep id 0.
  std::vector<uint32_t> ids(num_cols * n, 0);
  // A row whose value misses any column dictionary can never match a
  // group; flagged here and forced to kMiss at the end (Probe returns
  // early instead, which a batch cannot).
  std::vector<uint8_t> miss(n, 0);
  auto record = [&](uint32_t* col_ids, size_t r, uint32_t id) {
    if (id == FlatTable::kEmpty) {
      miss[r] = 1;
    } else {
      col_ids[r] = id;
    }
  };
  char buf[64];
  for (size_t k = 0; k < num_cols; ++k) {
    const Column& col = frame.col(col_idx[k]);
    const ColumnDict& dict = dicts_[k];
    const uint8_t* valid = col.ValidityData();
    uint32_t* col_ids = ids.data() + k * n;
    if (dict.mode == Mode::kInt64) {
      const int64_t* values = col.Int64Data();
      for (size_t r = 0; r < n; ++r) {
        if (valid[r] != 0) record(col_ids, r, dict.FindInt(values[r]));
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        if (valid[r] == 0) continue;
        record(col_ids, r,
               dict.FindString(RenderValue(col, r, dict.probe_granularity,
                                           buf, sizeof(buf))));
      }
    }
  }

  std::vector<uint64_t> hashes(n);
  simd::TupleHashBatch(ids.data(), num_cols, n, n, hashes.data());
  for (size_t r = 0; r < n; ++r) {
    out[r] = miss[r] ? kMiss : FindGroup(hashes[r], ids.data() + r, n);
  }
}

}  // namespace arda::df
