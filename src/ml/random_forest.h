#ifndef ARDA_ML_RANDOM_FOREST_H_
#define ARDA_ML_RANDOM_FOREST_H_

#include <vector>

#include "ml/decision_tree.h"
#include "ml/model.h"
#include "ml/training_view.h"

namespace arda::ml {

/// Hyperparameters for a random forest.
struct ForestConfig {
  TaskType task = TaskType::kRegression;
  size_t num_trees = 40;
  size_t max_depth = 12;
  size_t min_samples_leaf = 1;
  /// Features per split; 0 means sqrt(d) (the usual forest default).
  size_t max_features = 0;
  /// Bootstrap sample size as a fraction of n.
  double bootstrap_fraction = 1.0;
  uint64_t seed = 13;
  /// Threads used to fit/predict trees: 0 = hardware concurrency,
  /// 1 = serial. Results are bit-identical for every value (bootstrap
  /// samples and tree seeds are pre-drawn serially; reductions happen in
  /// tree order).
  size_t num_threads = 0;
};

/// Bagged CART ensemble: majority vote for classification, mean for
/// regression. Exposes averaged impurity importances, which both the
/// random-forest feature ranker and RIFS consume.
///
/// Fit ranks one TrainingView of the training matrix and every tree fits
/// on it, with its bootstrap sample passed as row indices into the view:
/// no tree copies, transposes or re-sorts the matrix.
class RandomForest : public Model {
 public:
  explicit RandomForest(const ForestConfig& config);

  /// Builds a TrainingView of (x, y) and fits on it.
  void Fit(const la::Matrix& x, const std::vector<double>& y) override;

  /// Fits on every row of `view` (its columns, in its order).
  /// Bit-identical to Fit on the view's matrix.
  void Fit(const TrainingView& view);
  std::vector<double> Predict(const la::Matrix& x) const override;

  /// Importances averaged over trees, normalized to sum to 1.
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  size_t NumTrees() const { return trees_.size(); }

 private:
  void FitTrees(const TrainingView& view);

  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  std::vector<double> importances_;
  size_t num_classes_ = 0;
};

}  // namespace arda::ml

#endif  // ARDA_ML_RANDOM_FOREST_H_
