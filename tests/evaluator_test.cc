#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "ml/automl.h"
#include "ml/evaluator.h"
#include "ml/random_forest.h"
#include "util/rng.h"

namespace arda::ml {
namespace {

// Feature 0 is strongly predictive, feature 1 is pure noise.
Dataset MakeSignalNoise(size_t n, TaskType task, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.task = task;
  data.x = la::Matrix(n, 2);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool positive = i % 2 == 0;
    data.x(i, 0) = rng.Normal(positive ? 2.0 : -2.0, 0.6);
    data.x(i, 1) = rng.Normal(0.0, 1.0);
    data.y[i] = task == TaskType::kClassification
                    ? (positive ? 1.0 : 0.0)
                    : 3.0 * data.x(i, 0);
  }
  data.feature_names = {"signal", "noise"};
  return data;
}

TEST(EvaluatorTest, SignalFeatureScoresHigherThanNoise) {
  Dataset data = MakeSignalNoise(300, TaskType::kClassification, 1);
  Evaluator evaluator(data, 0.25, 7);
  double signal_score = evaluator.ScoreFeatures({0});
  double noise_score = evaluator.ScoreFeatures({1});
  EXPECT_GT(signal_score, noise_score);
  EXPECT_GT(signal_score, 0.9);
}

TEST(EvaluatorTest, RegressionScoresAreNegativeMae) {
  Dataset data = MakeSignalNoise(300, TaskType::kRegression, 2);
  Evaluator evaluator(data, 0.25, 7);
  EXPECT_LE(evaluator.ScoreFeatures({1}), 0.0);
  EXPECT_GT(evaluator.ScoreFeatures({0}), evaluator.ScoreFeatures({1}));
}

TEST(EvaluatorTest, DeterministicGivenSeed) {
  Dataset data = MakeSignalNoise(200, TaskType::kClassification, 3);
  Evaluator a(data, 0.25, 7);
  Evaluator b(data, 0.25, 7);
  EXPECT_DOUBLE_EQ(a.ScoreAllFeatures(), b.ScoreAllFeatures());
}

TEST(EvaluatorTest, FinalScoreAtLeastAsGoodAsFixedEstimator) {
  Dataset data = MakeSignalNoise(200, TaskType::kClassification, 4);
  Evaluator evaluator(data, 0.25, 7);
  // FinalScore takes a max over a strictly larger model pool on the same
  // split, so it can only exceed individual members; compare to a
  // sanity floor instead of exact equality.
  EXPECT_GT(evaluator.FinalScore({0, 1}), 0.8);
}

TEST(EvaluatorTest, SplitExposesTrainAndTest) {
  Dataset data = MakeSignalNoise(100, TaskType::kClassification, 5);
  Evaluator evaluator(data, 0.2, 7);
  EXPECT_EQ(evaluator.train().NumRows() + evaluator.test().NumRows(), 100u);
  EXPECT_EQ(evaluator.task(), TaskType::kClassification);
  EXPECT_EQ(evaluator.NumFeatures(), 2u);
}

// Wide data with ties, -0.0 beside +0.0 and NaN cells, for the view
// equivalence test below.
Dataset MakeTiedData(TaskType task, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.task = task;
  const size_t n = 160, d = 9;
  data.x = la::Matrix(n, d);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      double v = std::round(rng.Normal() * 2.0) / 2.0;
      if (v == 0.0 && (i + c) % 2 == 0) v = -0.0;
      if ((i + 3 * c) % 11 == 0) v = std::numeric_limits<double>::quiet_NaN();
      data.x(i, c) = v;
    }
    const double signal = std::isnan(data.x(i, 0)) ? 0.0 : data.x(i, 0);
    data.y[i] = task == TaskType::kClassification
                    ? static_cast<double>(rng.UniformUint64(2) +
                                          (signal > 0.0 ? 1 : 0))
                    : std::round(4.0 * (signal + rng.Normal(0.0, 0.5))) / 4.0;
  }
  for (size_t c = 0; c < d; ++c) {
    data.feature_names.push_back("f" + std::to_string(c));
  }
  return data;
}

std::string Bits(const std::vector<double>& v) {
  std::string out(v.size() * sizeof(double), '\0');
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

TEST(EvaluatorTest, ForestOnSubsetViewEqualsForestOnSelectedFeatures) {
  for (TaskType task : {TaskType::kRegression, TaskType::kClassification}) {
    Dataset data = MakeTiedData(task, 31);
    Evaluator evaluator(data, 0.25, 7);
    Rng rng(41);
    // Seeded random subsets in random order, all views of the one ranked
    // view the evaluator builds on first use.
    for (size_t trial = 0; trial < 12; ++trial) {
      const size_t size = 1 + rng.UniformUint64(data.NumFeatures());
      std::vector<size_t> subset =
          rng.SampleWithoutReplacement(data.NumFeatures(), size);
      ForestConfig config;
      config.task = task;
      config.num_trees = 6;
      config.seed = 100 + trial;
      RandomForest on_view(config);
      on_view.Fit(evaluator.TrainView(subset));
      Dataset train_sub = evaluator.train().SelectFeatures(subset);
      RandomForest on_copy(config);
      on_copy.Fit(train_sub.x, train_sub.y);
      la::Matrix test_x = evaluator.test().x.SelectCols(subset);
      SCOPED_TRACE(std::string(TaskTypeName(task)) + " trial " +
                   std::to_string(trial));
      EXPECT_EQ(Bits(on_view.Predict(test_x)), Bits(on_copy.Predict(test_x)));
      EXPECT_EQ(Bits(on_view.feature_importances()),
                Bits(on_copy.feature_importances()));
    }
  }
}

TEST(AllFeatureIndicesTest, Basic) {
  EXPECT_EQ(AllFeatureIndices(3), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(AllFeatureIndices(0).empty());
}

TEST(AutoMlTest, FindsReasonableModelWithinBudget) {
  Dataset data = MakeSignalNoise(200, TaskType::kClassification, 6);
  AutoMlConfig config;
  config.time_budget_seconds = 1.0;
  config.max_configs = 15;
  AutoMlResult result = RunRandomSearchAutoMl(data, config);
  EXPECT_GT(result.configs_tried, 0u);
  EXPECT_LE(result.configs_tried, 15u);
  EXPECT_GT(result.best_score, 0.8);
  EXPECT_FALSE(result.best_config.empty());
}

TEST(AutoMlTest, RegressionSearch) {
  Dataset data = MakeSignalNoise(150, TaskType::kRegression, 7);
  AutoMlConfig config;
  config.time_budget_seconds = 1.0;
  config.max_configs = 10;
  AutoMlResult result = RunRandomSearchAutoMl(data, config);
  EXPECT_GT(result.configs_tried, 0u);
  EXPECT_GT(result.best_score, -2.0);  // -MAE not terrible
}

TEST(AutoMlTest, MoreBudgetNeverHurts) {
  Dataset data = MakeSignalNoise(150, TaskType::kClassification, 8);
  AutoMlConfig small;
  small.time_budget_seconds = 10.0;
  small.max_configs = 2;
  small.seed = 5;
  AutoMlConfig big = small;
  big.max_configs = 25;
  double small_score = RunRandomSearchAutoMl(data, small).best_score;
  double big_score = RunRandomSearchAutoMl(data, big).best_score;
  EXPECT_GE(big_score, small_score);  // same seed: strict superset of trials
}

}  // namespace
}  // namespace arda::ml
