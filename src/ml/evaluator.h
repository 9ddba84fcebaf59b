#ifndef ARDA_ML_EVALUATOR_H_
#define ARDA_ML_EVALUATOR_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ml/dataset.h"
#include "ml/model.h"
#include "ml/random_forest.h"
#include "ml/split.h"
#include "ml/training_view.h"

namespace arda::ml {

/// Scores feature subsets of one dataset on a fixed train/holdout split.
///
/// All of ARDA's comparisons (RIFS threshold sweep, exponential search,
/// wrapper selectors, final augmentation decisions) are "did the holdout
/// score improve?" questions, so the split is frozen at construction —
/// every candidate subset is judged on exactly the same rows.
///
/// Scores are "higher is better": accuracy for classification, negative
/// MAE for regression (see HigherIsBetterScore).
///
/// The evaluator's own forests (ScoreFeatures, ScoreAllFeatures and both
/// FinalScore forests) fit on column subsets of one ranked TrainingView of
/// the train split. The first score call copies the train split into the
/// view and ranks every column; later calls make no copy of the train
/// split. ScoreModel (and with it FinalScore's RBF SVM) fits on a copy of
/// the subset's columns.
class Evaluator {
 public:
  /// Freezes a stratified train/holdout split of `data`.
  Evaluator(const Dataset& data, double test_fraction, uint64_t seed);

  /// Holdout score of the paper's *fixed* default estimator (a modest
  /// random forest) trained on the given feature subset. This is the fast
  /// inner-loop scorer used during feature selection.
  double ScoreFeatures(const std::vector<size_t>& features) const;

  /// ScoreFeatures over all features.
  double ScoreAllFeatures() const;

  /// Holdout score of the paper's final estimate: a lightly tuned random
  /// forest (two depth settings) plus, for classification, an RBF-kernel
  /// SVM — the best holdout score is reported (Section 7).
  double FinalScore(const std::vector<size_t>& features) const;

  /// Holdout score of a caller-supplied model on a feature subset.
  double ScoreModel(Model* model, const std::vector<size_t>& features) const;

  /// The train split's ranked view restricted to `features`, in that
  /// order. A forest fitted on it equals, bit for bit, one fitted on
  /// train().SelectFeatures(features).
  TrainingView TrainView(const std::vector<size_t>& features) const;

  TaskType task() const { return train_.task; }
  size_t NumFeatures() const { return train_.NumFeatures(); }
  const Dataset& train() const { return train_; }
  const Dataset& test() const { return test_; }

 private:
  struct LazyView {
    std::once_flag once;
    std::optional<TrainingView> view;
  };

  ForestConfig DefaultForestConfig() const;
  double ScoreForest(RandomForest* forest,
                     const std::vector<size_t>& features) const;

  Dataset train_;
  Dataset test_;
  uint64_t seed_;
  /// Shared by copies: they hold the same train split.
  std::shared_ptr<LazyView> train_view_;
};

/// All feature indices [0, count).
std::vector<size_t> AllFeatureIndices(size_t count);

}  // namespace arda::ml

#endif  // ARDA_ML_EVALUATOR_H_
