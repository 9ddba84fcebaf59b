#include "ml/evaluator.h"

#include <algorithm>

#include "ml/metrics.h"
#include "ml/svm_rbf.h"
#include "util/check.h"

namespace arda::ml {

Evaluator::Evaluator(const Dataset& data, double test_fraction,
                     uint64_t seed)
    : seed_(seed), train_view_(std::make_shared<LazyView>()) {
  Rng rng(seed);
  TrainTestSplit split = MakeTrainTestSplit(data, test_fraction, &rng);
  train_ = std::move(split.train);
  test_ = std::move(split.test);
}

ForestConfig Evaluator::DefaultForestConfig() const {
  ForestConfig config;
  config.task = train_.task;
  config.num_trees = 24;
  config.max_depth = 10;
  config.seed = seed_ ^ 0xA5A5A5A5ULL;
  return config;
}

TrainingView Evaluator::TrainView(const std::vector<size_t>& features) const {
  // Ranked on as many threads as the evaluator's forests fit on.
  std::call_once(train_view_->once, [&] {
    train_view_->view.emplace(train_.x, train_.y, train_.task,
                              DefaultForestConfig().num_threads);
  });
  return train_view_->view->Select(features);
}

double Evaluator::ScoreModel(Model* model,
                             const std::vector<size_t>& features) const {
  ARDA_CHECK(!features.empty());
  Dataset train_sub = train_.SelectFeatures(features);
  Dataset test_sub = test_.SelectFeatures(features);
  model->Fit(train_sub.x, train_sub.y);
  std::vector<double> pred = model->Predict(test_sub.x);
  return HigherIsBetterScore(train_.task, test_sub.y, pred);
}

double Evaluator::ScoreForest(RandomForest* forest,
                              const std::vector<size_t>& features) const {
  ARDA_CHECK(!features.empty());
  forest->Fit(TrainView(features));
  la::Matrix test_x = test_.x.SelectCols(features);
  std::vector<double> pred = forest->Predict(test_x);
  return HigherIsBetterScore(train_.task, test_.y, pred);
}

double Evaluator::ScoreFeatures(const std::vector<size_t>& features) const {
  RandomForest forest(DefaultForestConfig());
  return ScoreForest(&forest, features);
}

double Evaluator::ScoreAllFeatures() const {
  return ScoreFeatures(AllFeatureIndices(train_.NumFeatures()));
}

double Evaluator::FinalScore(const std::vector<size_t>& features) const {
  double best = -1e300;
  for (size_t depth : {8u, 14u}) {
    ForestConfig config;
    config.task = train_.task;
    config.num_trees = 40;
    config.max_depth = depth;
    config.seed = seed_ ^ (0xC3C3ULL + depth);
    RandomForest forest(config);
    best = std::max(best, ScoreForest(&forest, features));
  }
  if (train_.task == TaskType::kClassification &&
      train_.NumRows() <= 3000) {
    RbfSvmConfig config;
    config.seed = seed_ ^ 0x5151ULL;
    RbfSvm svm(config);
    best = std::max(best, ScoreModel(&svm, features));
  }
  return best;
}

std::vector<size_t> AllFeatureIndices(size_t count) {
  std::vector<size_t> indices(count);
  for (size_t i = 0; i < count; ++i) indices[i] = i;
  return indices;
}

}  // namespace arda::ml
