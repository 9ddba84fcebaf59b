#include "ml/training_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace arda::ml {

namespace {

// Monotone map from double to uint64_t under the split search's order:
// a < b (NaN-aware, see below) iff OrderKey(a) < OrderKey(b), and equal
// keys mean tied values. -0.0 maps to the key of +0.0 because operator<
// ties them, and every NaN maps to the single largest key: NaN sorts
// after +inf and all NaNs tie (raw bit-pattern order would scatter
// negative-sign NaNs below -inf).
uint64_t OrderKey(double d) {
  if (std::isnan(d)) return ~0ull;
  if (d == 0.0) d = 0.0;
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return (b & 0x8000000000000000ull) ? ~b : (b | 0x8000000000000000ull);
}

using KeyedRow = std::pair<uint64_t, uint32_t>;

// Stable LSD radix sort by key: within equal keys the input order is kept.
// Digits whose byte is constant across all keys (the common case for
// exponent bytes) are skipped.
void RadixSortByKey(std::vector<KeyedRow>* a, std::vector<KeyedRow>* tmp) {
  const size_t n = a->size();
  if (n < 2) return;
  tmp->resize(n);
  size_t hist[8][256] = {};
  for (const KeyedRow& kv : *a) {
    for (size_t d = 0; d < 8; ++d) ++hist[d][(kv.first >> (8 * d)) & 0xFF];
  }
  std::vector<KeyedRow>* src = a;
  std::vector<KeyedRow>* dst = tmp;
  for (size_t d = 0; d < 8; ++d) {
    const size_t* h = hist[d];
    if (h[(src->front().first >> (8 * d)) & 0xFF] == n) continue;
    size_t pos[256];
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      pos[b] = sum;
      sum += h[b];
    }
    for (const KeyedRow& kv : *src) {
      (*dst)[pos[(kv.first >> (8 * d)) & 0xFF]++] = kv;
    }
    std::swap(src, dst);
  }
  if (src != a) a->swap(*tmp);
}

}  // namespace

TrainingView::TrainingView(const la::Matrix& x, const std::vector<double>& y,
                           TaskType task, size_t num_threads)
    : storage_(std::make_shared<Storage>()) {
  ARDA_CHECK_EQ(x.rows(), y.size());
  const size_t n = x.rows();
  const size_t d = x.cols();
  ARDA_CHECK_LT(n, static_cast<size_t>(INT32_MAX));
  Storage& s = *storage_;
  s.rows = n;
  s.task = task;

  s.values.resize(d * n);
  constexpr size_t kTile = 64;  // bounds live write streams during transpose
  for (size_t f0 = 0; f0 < d; f0 += kTile) {
    const size_t f1 = std::min(d, f0 + kTile);
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.RowPtr(r);
      for (size_t f = f0; f < f1; ++f) s.values[f * n + r] = row[f];
    }
  }

  s.targets = y;
  if (task == TaskType::kClassification) {
    s.labels.resize(n);
    uint32_t max_label = 0;
    for (size_t i = 0; i < n; ++i) {
      s.labels[i] = static_cast<uint32_t>(std::lround(y[i]));
      s.targets[i] = static_cast<double>(s.labels[i]);
      max_label = std::max(max_label, s.labels[i]);
    }
    s.num_classes = size_t{max_label} + 1;
  }

  // Rows in ascending target order, and each row's dense target rank:
  // every column's ranking sorts by value stably over this order, which
  // breaks value ties by target.
  std::vector<KeyedRow> keys(n), tmp;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = {OrderKey(s.targets[i]), static_cast<uint32_t>(i)};
  }
  RadixSortByKey(&keys, &tmp);
  std::vector<uint32_t> target_order(n);
  std::vector<uint32_t> target_rank(n);
  uint32_t rank = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && keys[i].first != keys[i - 1].first) ++rank;
    target_order[i] = keys[i].second;
    target_rank[keys[i].second] = rank;
  }

  // Columns are independent, so the ranks do not depend on the thread
  // count. One task ranks a block of columns, so its sort buffers are
  // allocated once per block rather than once per column.
  s.ranked.resize(d);
  constexpr size_t kBlock = 16;
  ParallelFor((d + kBlock - 1) / kBlock, num_threads, [&](size_t block) {
    std::vector<KeyedRow> sorted(n), sort_tmp;
    std::vector<double> values(n), targets(n);
    for (size_t f = block * kBlock; f < std::min(d, (block + 1) * kBlock);
         ++f) {
      const double* col = s.values.data() + f * n;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t row = target_order[i];
        sorted[i] = {OrderKey(col[row]), row};
      }
      RadixSortByKey(&sorted, &sort_tmp);

      // Dense (value, target) ranks: a new rank starts wherever the value
      // key or the target rank changes along the sorted order.
      RankedColumn& out = s.ranked[f];
      out.ranks.resize(n);
      size_t num_ranks = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t row = sorted[i].second;
        if (i == 0 || sorted[i].first != sorted[i - 1].first ||
            target_rank[row] != target_rank[sorted[i - 1].second]) {
          values[num_ranks] = col[row];
          targets[num_ranks] = s.targets[row];
          ++num_ranks;
        }
        out.ranks[row] = static_cast<uint32_t>(num_ranks - 1);
      }
      out.rank_values.assign(values.begin(), values.begin() + num_ranks);
      out.rank_targets.assign(targets.begin(), targets.begin() + num_ranks);
    }
  });

  columns_.resize(d);
  for (size_t f = 0; f < d; ++f) columns_[f] = f;
}

TrainingView TrainingView::Select(const std::vector<size_t>& features) const {
  TrainingView out;
  out.storage_ = storage_;
  out.columns_.reserve(features.size());
  for (size_t f : features) {
    ARDA_CHECK_LT(f, columns_.size());
    out.columns_.push_back(columns_[f]);
  }
  return out;
}

}  // namespace arda::ml
