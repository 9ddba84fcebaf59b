#ifndef ARDA_ML_DECISION_TREE_H_
#define ARDA_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/model.h"
#include "ml/training_view.h"
#include "simd/aligned.h"
#include "util/rng.h"

namespace arda::ml {

/// Hyperparameters for a CART decision tree.
struct TreeConfig {
  TaskType task = TaskType::kRegression;
  size_t max_depth = 12;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Features examined per split; 0 means all, otherwise a random subset
  /// of this size is drawn per node (random-forest style).
  size_t max_features = 0;
  /// Splits must reduce weighted impurity by at least this much.
  double min_impurity_decrease = 1e-9;
  uint64_t seed = 7;
};

/// CART decision tree: variance reduction for regression, Gini for
/// classification. Supports per-node feature subsampling and exposes
/// impurity-based feature importances (both needed by the random forest
/// and the RIFS ranking ensemble).
///
/// A tree fits on rows of a ranked TrainingView: Fit(x, y) builds one for
/// its own matrix, a random forest hands every tree the same view and the
/// tree's bootstrap rows. Split search orders rows by the view's 32-bit
/// (value, target) ranks, never by comparing doubles, in one of two modes
/// with bit-identical results (see DESIGN.md "Columnar split search"):
///  - pre-sorted (every feature is a candidate at every node, the single
///    tree / gradient-boosting case): each feature's rows are ordered once
///    per tree by a counting sort of their ranks, and every node scans its
///    contiguous slice of that order in O(n) after an O(n) stable
///    partition per split;
///  - per-node (random-forest feature subsampling): each node gathers the
///    sampled features' ranks of its rows, sorts them (a counting sort
///    when the node holds at least a quarter of the view's rows) and reads
///    the values and targets back from the view's rank tables.
///
/// NaN feature values are ordered identically in both modes: every NaN
/// sorts after +inf and all NaNs compare equal, thresholds are never
/// placed on a non-finite midpoint, and NaN rows always fall to the right
/// child (x <= threshold is false), in Fit and Predict alike.
class DecisionTree : public Model {
 public:
  explicit DecisionTree(const TreeConfig& config);

  void Fit(const la::Matrix& x, const std::vector<double>& y) override;

  /// Fits on `rows` of `view` (indices into it; repeats allowed, as in a
  /// bootstrap sample). Bit-identical to Fit on the matrix of those rows,
  /// in that order, restricted to the view's columns.
  void Fit(const TrainingView& view, std::vector<size_t> rows);

  std::vector<double> Predict(const la::Matrix& x) const override;

  /// Total impurity decrease attributed to each feature during Fit,
  /// normalized to sum to 1 (all zeros if the tree is a single leaf).
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  /// Number of nodes in the fitted tree.
  size_t NumNodes() const { return nodes_.size(); }

  /// Exact textual serialization of the fitted tree, one node per line:
  /// `id leaf feature threshold value left right` with doubles rendered as
  /// hexfloats. Two trees serialize identically iff they are bit-identical
  /// (the golden-output regression tests rely on this).
  std::string Serialize() const;

 private:
  struct Node {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;  // prediction for leaves
    int left = -1;
    int right = -1;
  };

  int BuildNode(std::vector<size_t>* indices, size_t begin, size_t end,
                size_t depth, Rng* rng);

  /// Sorts the ranks of feature f over the node rows indices[begin, end)
  /// and gathers their values and targets, in ascending (value, target)
  /// order, into vals_/ys_[0, end - begin). Returns false (gathering
  /// nothing) when the feature is constant on the node.
  bool GatherSorted(size_t f, const std::vector<size_t>& indices,
                    size_t begin, size_t end);

  /// Scans the candidate thresholds of one feature whose node rows have
  /// been gathered, in ascending (value, target) order, into
  /// vals_/ys_[0, count); for classification ys_ holds the labels. Updates
  /// best_* when a better split is found.
  void ScanThresholds(size_t count, size_t feature, double node_impurity,
                      const double* class_counts, double* best_gain,
                      size_t* best_feature, double* best_threshold);

  TreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  size_t num_features_ = 0;

  // --- Fit-time state (released when Fit returns). ---
  const TrainingView* view_ = nullptr;
  size_t num_rows_ = 0;     // fitted rows (m), repeats included
  size_t num_classes_ = 0;  // classification only; hoisted out of BuildNode
  bool presorted_ = false;
  /// Pre-sorted mode: feature-major [f * m, (f+1) * m) view rows for the
  /// m fitted rows, each feature slice in ascending rank order. Node
  /// ranges [begin, end) index into every feature slice simultaneously.
  simd::AlignedVector<uint32_t> feat_order_;
  std::vector<uint32_t> part_tmp_;   // stable-partition scratch
  std::vector<uint8_t> left_mask_;   // per view row split side of a node
  /// Per-node mode: one node's ranks of one feature, then sorted.
  std::vector<uint32_t> node_ranks_;
  std::vector<uint32_t> rank_counts_;  // counting-sort histogram
  simd::AlignedVector<double> vals_; // gathered feature values, one node
  simd::AlignedVector<double> ys_;   // gathered targets, one node
  std::vector<double> class_counts_; // node label histogram
  std::vector<double> left_counts_;  // running left label histogram
};

}  // namespace arda::ml

#endif  // ARDA_ML_DECISION_TREE_H_
