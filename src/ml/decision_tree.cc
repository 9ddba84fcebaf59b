#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "simd/simd.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace arda::ml {

namespace {

// Equality under the split search's order: operator== on reals (so -0.0
// and +0.0 merge into one threshold run) and all NaNs equal to each other.
bool SameValue(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

double GiniTimesCount(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return total - sum_sq / total;  // total * (1 - sum p_i^2)
}

}  // namespace

DecisionTree::DecisionTree(const TreeConfig& config) : config_(config) {}

void DecisionTree::Fit(const la::Matrix& x, const std::vector<double>& y) {
  ARDA_CHECK_EQ(x.rows(), y.size());
  TrainingView view(x, y, config_.task, /*num_threads=*/1);
  std::vector<size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Fit(view, std::move(rows));
}

void DecisionTree::Fit(const TrainingView& view, std::vector<size_t> rows) {
  trace::TraceSpan fit_span("tree.fit", "ml");
  Stopwatch fit_watch;
  ARDA_CHECK(view.task() == config_.task);
  ARDA_CHECK_GT(rows.size(), 0u);
  view_ = &view;
  nodes_.clear();
  num_features_ = view.cols();
  importances_.assign(num_features_, 0.0);
  const size_t m = rows.size();
  num_rows_ = m;

  num_classes_ = 0;
  if (config_.task == TaskType::kClassification) {
    const uint32_t* labels = view.labels();
    uint32_t max_label = 0;
    for (size_t row : rows) max_label = std::max(max_label, labels[row]);
    num_classes_ = size_t{max_label} + 1;
    class_counts_.resize(num_classes_);
    left_counts_.resize(num_classes_);
  }
  vals_.resize(m);
  ys_.resize(m);

  // Pre-sorting every feature pays off exactly when every feature is a
  // split candidate at every node; with per-node feature subsampling,
  // ordering all F features would outweigh the scan savings on the
  // sampled sqrt(F), so that case sorts the sampled features' ranks per
  // node instead.
  presorted_ =
      config_.max_features == 0 || config_.max_features >= num_features_;
  if (presorted_) {
    // Counting sort of the fitted rows by rank, stable in `rows` order.
    // Which order tied rows take cannot change a scan: rows of one rank
    // are interchangeable (TrainingView), and classification scans only
    // at value-run boundaries.
    feat_order_.resize(num_features_ * m);
    for (size_t f = 0; f < num_features_; ++f) {
      const uint32_t* ranks = view.ranks(f);
      const size_t num_ranks = view.num_ranks(f);
      rank_counts_.assign(num_ranks + 1, 0);
      for (size_t row : rows) ++rank_counts_[ranks[row] + 1];
      for (size_t r = 1; r < num_ranks; ++r) {
        rank_counts_[r] += rank_counts_[r - 1];
      }
      uint32_t* slice = feat_order_.data() + f * m;
      for (size_t row : rows) {
        slice[rank_counts_[ranks[row]]++] = static_cast<uint32_t>(row);
      }
    }
    part_tmp_.resize(m);
    left_mask_.assign(view.rows(), 0);
  } else {
    node_ranks_.resize(m);
  }

  Rng rng(config_.seed);
  BuildNode(&rows, 0, m, 0, &rng);

  // Release fit-time scratch.
  view_ = nullptr;
  feat_order_ = {};
  part_tmp_ = {};
  left_mask_ = {};
  node_ranks_ = {};
  rank_counts_ = {};
  vals_ = {};
  ys_ = {};
  class_counts_ = {};
  left_counts_ = {};

  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }

  // The registry lookup costs a mutex + map walk; trees fit in tight
  // parallel loops, so resolve the histogram once and reuse the reference
  // (ResetForTest zeroes in place, never invalidating it).
  static metrics::Histogram& fit_hist =
      metrics::GlobalRegistry().GetHistogram(
          "ml.tree_fit_seconds", metrics::LatencyBucketsSeconds());
  fit_hist.Observe(fit_watch.ElapsedSeconds());
}

bool DecisionTree::GatherSorted(size_t f, const std::vector<size_t>& indices,
                                size_t begin, size_t end) {
  const TrainingView& view = *view_;
  const uint32_t* ranks = view.ranks(f);
  const double* rank_values = view.rank_values(f);
  const size_t count = end - begin;
  uint32_t* sorted = node_ranks_.data();
  if (4 * count >= view.rows()) {
    // Ranks are below num_ranks <= n, so on a node this large one counting
    // pass over the ranks beats a comparison sort.
    const size_t num_ranks = view.num_ranks(f);
    rank_counts_.assign(num_ranks, 0);
    for (size_t i = begin; i < end; ++i) ++rank_counts_[ranks[indices[i]]];
    uint32_t* out = sorted;
    for (size_t r = 0; r < num_ranks; ++r) {
      out = std::fill_n(out, rank_counts_[r], static_cast<uint32_t>(r));
    }
  } else {
    for (size_t i = 0; i < count; ++i) sorted[i] = ranks[indices[begin + i]];
    std::sort(sorted, sorted + count);
  }
  if (SameValue(rank_values[sorted[0]], rank_values[sorted[count - 1]])) {
    return false;  // constant feature (an all-NaN column counts)
  }
  // Pure gather (no accumulation), so the vector path is exact.
  simd::GatherValsTargets(rank_values, view.rank_targets(f), sorted, count,
                          vals_.data(), ys_.data());
  return true;
}

void DecisionTree::ScanThresholds(size_t count, size_t feature,
                                  double node_impurity,
                                  const double* class_counts,
                                  double* best_gain, size_t* best_feature,
                                  double* best_threshold) {
  const double* vals = vals_.data();
  const double* ys = ys_.data();
  // ClassSquares' vector path regroups the accumulation across lanes; with
  // whole-number counts < 2^26 every partial sum of squares is an exact
  // integer < 2^53, so the regrouping cannot change the result (simd.h
  // "determinism contract"). Larger nodes keep the sequential loop — both
  // dispatch levels take the same branch, so outputs stay level-invariant.
  const bool exact_counts = count < (size_t{1} << 26);
  if (num_classes_ > 0) {
    std::fill(left_counts_.begin(), left_counts_.end(), 0.0);
    double* left_counts = left_counts_.data();
    double left_n = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      left_counts[static_cast<size_t>(ys[i])] += 1.0;
      left_n += 1.0;
      if (vals[i] == vals[i + 1]) continue;
      const double right_n = static_cast<double>(count) - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      // One fused pass over the class histograms; accumulation order per
      // sum matches the separate left/right loops exactly.
      double left_sq = 0.0, right_sq = 0.0;
      if (exact_counts) {
        simd::ClassSquares(left_counts, class_counts, num_classes_,
                           &left_sq, &right_sq);
      } else {
        for (size_t c = 0; c < num_classes_; ++c) {
          double lc = left_counts[c];
          double rc = class_counts[c] - lc;
          left_sq += lc * lc;
          right_sq += rc * rc;
        }
      }
      double left_imp = left_n - left_sq / left_n;
      double right_imp = right_n - right_sq / right_n;
      double gain = node_impurity - left_imp - right_imp;
      if (gain > *best_gain &&
          std::isfinite(0.5 * (vals[i] + vals[i + 1]))) {
        *best_gain = gain;
        *best_feature = feature;
        *best_threshold = 0.5 * (vals[i] + vals[i + 1]);
      }
    }
  } else {
    double total_sum = 0.0, total_sq = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total_sum += ys[i];
      total_sq += ys[i] * ys[i];
    }
    double left_sum = 0.0, left_sq = 0.0, left_n = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      left_sum += ys[i];
      left_sq += ys[i] * ys[i];
      left_n += 1.0;
      if (vals[i] == vals[i + 1]) continue;
      const double right_n = static_cast<double>(count) - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      double left_sse = left_sq - left_sum * left_sum / left_n;
      double right_sum = total_sum - left_sum;
      double right_sse =
          (total_sq - left_sq) - right_sum * right_sum / right_n;
      double gain = node_impurity - left_sse - right_sse;
      if (gain > *best_gain &&
          std::isfinite(0.5 * (vals[i] + vals[i + 1]))) {
        *best_gain = gain;
        *best_feature = feature;
        *best_threshold = 0.5 * (vals[i] + vals[i + 1]);
      }
    }
  }
}

int DecisionTree::BuildNode(std::vector<size_t>* indices, size_t begin,
                            size_t end, size_t depth, Rng* rng) {
  const size_t count = end - begin;
  ARDA_CHECK_GT(count, 0u);
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  const TrainingView& view = *view_;
  const bool classification = num_classes_ > 0;
  const size_t m = num_rows_;

  // Node statistics: impurity (scaled by count) and the leaf prediction.
  double node_impurity = 0.0;
  double leaf_value = 0.0;
  if (classification) {
    const uint32_t* labels = view.labels();
    std::fill(class_counts_.begin(), class_counts_.end(), 0.0);
    for (size_t i = begin; i < end; ++i) {
      class_counts_[labels[(*indices)[i]]] += 1.0;
    }
    node_impurity = GiniTimesCount(class_counts_, static_cast<double>(count));
    size_t best_class = 0;
    for (size_t c = 1; c < num_classes_; ++c) {
      if (class_counts_[c] > class_counts_[best_class]) best_class = c;
    }
    leaf_value = static_cast<double>(best_class);
  } else {
    const double* y = view.targets();
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = begin; i < end; ++i) {
      double v = y[(*indices)[i]];
      sum += v;
      sum_sq += v * v;
    }
    leaf_value = sum / static_cast<double>(count);
    node_impurity = sum_sq - sum * sum / static_cast<double>(count);  // SSE
  }
  nodes_[node_id].value = leaf_value;

  const bool pure = node_impurity <= 1e-12;
  if (depth >= config_.max_depth || count < config_.min_samples_split ||
      count < 2 * config_.min_samples_leaf || pure) {
    return node_id;
  }

  // Feature subset for this node (pre-sorted mode always scans all).
  std::vector<size_t> sampled;
  if (!presorted_) {
    sampled = rng->SampleWithoutReplacement(num_features_,
                                            config_.max_features);
  }

  // Best split search over contiguous (value, target) runs per feature.
  double best_gain = config_.min_impurity_decrease;
  size_t best_feature = 0;
  double best_threshold = 0.0;
  const size_t num_candidates = presorted_ ? num_features_ : sampled.size();
  for (size_t fi = 0; fi < num_candidates; ++fi) {
    const size_t f = presorted_ ? fi : sampled[fi];
    if (presorted_) {
      const double* col = view.column(f);
      const uint32_t* slice = feat_order_.data() + f * m + begin;
      if (SameValue(col[slice[0]], col[slice[count - 1]])) continue;
      if (classification) {
        // Fused gather + threshold scan: each sorted row is touched once
        // instead of being staged through vals_/ys_. The arithmetic is
        // the same as ScanThresholds' classification branch, including its
        // exact_counts guard around the SIMD class-square reduction.
        const bool exact_counts = count < (size_t{1} << 26);
        std::fill(left_counts_.begin(), left_counts_.end(), 0.0);
        double* left_counts = left_counts_.data();
        const double* class_counts = class_counts_.data();
        const uint32_t* labels = view.labels();
        double left_n = 0.0;
        double v = col[slice[0]];
        for (size_t i = 0; i + 1 < count; ++i) {
          const double v_next = col[slice[i + 1]];
          left_counts[labels[slice[i]]] += 1.0;
          left_n += 1.0;
          if (v != v_next) {
            const double right_n = static_cast<double>(count) - left_n;
            if (left_n >= config_.min_samples_leaf &&
                right_n >= config_.min_samples_leaf) {
              double left_sq = 0.0, right_sq = 0.0;
              if (exact_counts) {
                simd::ClassSquares(left_counts, class_counts, num_classes_,
                                   &left_sq, &right_sq);
              } else {
                for (size_t c = 0; c < num_classes_; ++c) {
                  double lc = left_counts[c];
                  double rc = class_counts[c] - lc;
                  left_sq += lc * lc;
                  right_sq += rc * rc;
                }
              }
              double left_imp = left_n - left_sq / left_n;
              double right_imp = right_n - right_sq / right_n;
              double gain = node_impurity - left_imp - right_imp;
              // A non-finite midpoint (the run boundary into the NaN
              // region, or ±inf values) cannot partition rows; skip it.
              if (gain > best_gain && std::isfinite(0.5 * (v + v_next))) {
                best_gain = gain;
                best_feature = f;
                best_threshold = 0.5 * (v + v_next);
              }
            }
          }
          v = v_next;
        }
        continue;
      } else {
        // Pure gather (no accumulation), so the vector path is exact.
        simd::GatherValsTargets(col, view.targets(), slice, count,
                                vals_.data(), ys_.data());
      }
    } else if (!GatherSorted(f, *indices, begin, end)) {
      continue;
    }
    ScanThresholds(count, f, node_impurity, class_counts_.data(), &best_gain,
                   &best_feature, &best_threshold);
  }

  if (best_gain <= config_.min_impurity_decrease) {
    return node_id;  // no useful split found
  }

  // Partition index range by the chosen split.
  const double* best_col = view.column(best_feature);
  auto middle = std::partition(
      indices->begin() + static_cast<ptrdiff_t>(begin),
      indices->begin() + static_cast<ptrdiff_t>(end),
      [&](size_t row) { return best_col[row] <= best_threshold; });
  size_t mid = static_cast<size_t>(middle - indices->begin());
  if (mid == begin || mid == end) {
    return node_id;  // numerically degenerate split
  }

  if (presorted_) {
    // Stable-partition every feature's slice so both children stay sorted.
    for (size_t i = begin; i < mid; ++i) left_mask_[(*indices)[i]] = 1;
    for (size_t i = mid; i < end; ++i) left_mask_[(*indices)[i]] = 0;
    for (size_t f = 0; f < num_features_; ++f) {
      uint32_t* slice = feat_order_.data() + f * m;
      size_t out = begin;
      size_t spilled = 0;
      for (size_t i = begin; i < end; ++i) {
        // Branchless split: both stores always happen; `out <= i` so the
        // left store never clobbers an unread element, and the right copy
        // at a stale part_tmp_ slot is overwritten or never read.
        uint32_t row = slice[i];
        size_t is_left = left_mask_[row];
        slice[out] = row;
        part_tmp_[spilled] = row;
        out += is_left;
        spilled += 1 - is_left;
      }
      std::copy(part_tmp_.begin(),
                part_tmp_.begin() + static_cast<ptrdiff_t>(spilled),
                slice + out);
    }
  }

  importances_[best_feature] += best_gain;
  nodes_[node_id].is_leaf = false;
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  int left = BuildNode(indices, begin, mid, depth + 1, rng);
  int right = BuildNode(indices, mid, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

std::string DecisionTree::Serialize() const {
  std::string out;
  char line[160];
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    std::snprintf(line, sizeof(line), "%zu %d %zu %a %a %d %d\n", i,
                  nd.is_leaf ? 1 : 0, nd.feature, nd.threshold, nd.value,
                  nd.left, nd.right);
    out += line;
  }
  return out;
}

std::vector<double> DecisionTree::Predict(const la::Matrix& x) const {
  trace::TraceSpan predict_span("tree.predict", "ml");
  Stopwatch predict_watch;
  ARDA_CHECK(!nodes_.empty());
  ARDA_CHECK_EQ(x.cols(), num_features_);
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    int node = 0;
    while (!nodes_[static_cast<size_t>(node)].is_leaf) {
      const Node& nd = nodes_[static_cast<size_t>(node)];
      node = x(r, nd.feature) <= nd.threshold ? nd.left : nd.right;
    }
    out[r] = nodes_[static_cast<size_t>(node)].value;
  }
  static metrics::Histogram& predict_hist =
      metrics::GlobalRegistry().GetHistogram(
          "ml.tree_predict_seconds", metrics::LatencyBucketsSeconds());
  predict_hist.Observe(predict_watch.ElapsedSeconds());
  return out;
}

}  // namespace arda::ml
