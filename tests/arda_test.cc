#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/arda.h"
#include "data/generators.h"

namespace arda::core {
namespace {

// A tiny hand-built augmentation problem: the target depends on a hidden
// value stored in a SIGNAL foreign table; a NOISE table is also joinable.
struct TinyWorld {
  discovery::DataRepository repo;
  AugmentationTask task;
};

TinyWorld MakeTinyWorld(size_t n = 240) {
  Rng rng(99);
  TinyWorld world;
  std::vector<int64_t> ids(n);
  std::vector<double> base_feature(n);
  std::vector<double> hidden(n);
  std::vector<double> target(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<int64_t>(i);
    base_feature[i] = rng.Normal();
    hidden[i] = rng.Normal();
    target[i] = 1.0 * base_feature[i] + 4.0 * hidden[i] +
                rng.Normal(0.0, 0.2);
  }
  df::DataFrame base;
  EXPECT_TRUE(base.AddColumn(df::Column::Int64("id", ids)).ok());
  EXPECT_TRUE(base.AddColumn(df::Column::Double("b", base_feature)).ok());
  EXPECT_TRUE(base.AddColumn(df::Column::Double("y", target)).ok());

  df::DataFrame signal;
  EXPECT_TRUE(signal.AddColumn(df::Column::Int64("id", ids)).ok());
  EXPECT_TRUE(signal.AddColumn(df::Column::Double("hidden", hidden)).ok());
  EXPECT_TRUE(world.repo.Add("signal", std::move(signal)).ok());

  df::DataFrame noise;
  std::vector<double> junk(n);
  for (double& v : junk) v = rng.Normal();
  EXPECT_TRUE(noise.AddColumn(df::Column::Int64("id", ids)).ok());
  EXPECT_TRUE(noise.AddColumn(df::Column::Double("junk", junk)).ok());
  EXPECT_TRUE(world.repo.Add("noise", std::move(noise)).ok());

  EXPECT_TRUE(world.repo.Add("base", base).ok());

  world.task.base = std::move(base);
  world.task.target_column = "y";
  world.task.task = ml::TaskType::kRegression;
  world.task.repo = &world.repo;
  world.task.base_table_name = "base";
  discovery::CandidateJoin signal_cand;
  signal_cand.foreign_table = "signal";
  signal_cand.keys = {
      discovery::JoinKeyPair{"id", "id", discovery::KeyKind::kHard}};
  signal_cand.score = 0.9;
  discovery::CandidateJoin noise_cand = signal_cand;
  noise_cand.foreign_table = "noise";
  noise_cand.score = 0.8;
  world.task.candidates = {signal_cand, noise_cand};
  return world;
}

TEST(BuildDatasetTest, NumericRegressionTarget) {
  TinyWorld world = MakeTinyWorld(50);
  Result<ml::Dataset> data =
      BuildDataset(world.task.base, "y", ml::TaskType::kRegression);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->NumRows(), 50u);
  EXPECT_EQ(data->NumFeatures(), 2u);  // id + b (y excluded)
  EXPECT_EQ(data->task, ml::TaskType::kRegression);
}

TEST(BuildDatasetTest, StringClassificationTargetMapsToIds) {
  df::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(df::Column::Double("x", {1, 2, 3})).ok());
  ASSERT_TRUE(
      frame.AddColumn(df::Column::String("label", {"no", "yes", "no"}))
          .ok());
  Result<ml::Dataset> data =
      BuildDataset(frame, "label", ml::TaskType::kClassification);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->y, (std::vector<double>{0.0, 1.0, 0.0}));
}

TEST(BuildDatasetTest, NumericClassificationLabelsMapToDenseIds) {
  df::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(df::Column::Double("x", {1, 2, 3})).ok());
  ASSERT_TRUE(
      frame.AddColumn(df::Column::Double("label", {0, 1e12, 0})).ok());
  Result<ml::Dataset> data =
      BuildDataset(frame, "label", ml::TaskType::kClassification);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->y, (std::vector<double>{0.0, 1.0, 0.0}));

  // Labels that are already 0..k-1 after rounding keep their values.
  df::DataFrame dense;
  ASSERT_TRUE(dense.AddColumn(df::Column::Double("x", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(
      dense.AddColumn(df::Column::Double("label", {2, 0.4, 1, 1.6})).ok());
  data = BuildDataset(dense, "label", ml::TaskType::kClassification);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->y, (std::vector<double>{2.0, 0.0, 1.0, 2.0}));
}

TEST(BuildDatasetTest, RejectsNonFiniteClassificationLabels) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    df::DataFrame frame;
    ASSERT_TRUE(frame.AddColumn(df::Column::Double("x", {1, 2, 3})).ok());
    ASSERT_TRUE(
        frame.AddColumn(df::Column::Double("label", {0, bad, 1})).ok());
    Result<ml::Dataset> data =
        BuildDataset(frame, "label", ml::TaskType::kClassification);
    ASSERT_FALSE(data.ok()) << bad;
    EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(data.status().message().find("label"), std::string::npos)
        << data.status().message();
  }
}

TEST(BuildDatasetTest, RejectsBadTargets) {
  df::DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(df::Column::String("s", {"a"})).ok());
  EXPECT_FALSE(BuildDataset(frame, "s", ml::TaskType::kRegression).ok());
  EXPECT_FALSE(BuildDataset(frame, "missing",
                            ml::TaskType::kClassification)
                   .ok());
  df::DataFrame nulls;
  df::Column y = df::Column::Empty("y", df::DataType::kDouble);
  y.AppendNull();
  ASSERT_TRUE(nulls.AddColumn(std::move(y)).ok());
  EXPECT_FALSE(BuildDataset(nulls, "y", ml::TaskType::kRegression).ok());
}

TEST(JoinPlanTest, FullMaterializationIsOneBatch) {
  TinyWorld world = MakeTinyWorld(30);
  auto batches =
      BuildJoinPlan(world.task.candidates, world.repo,
                    JoinPlanKind::kFullMaterialization, 100, {});
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
}

TEST(JoinPlanTest, TableAtATimeIsOnePerBatch) {
  TinyWorld world = MakeTinyWorld(30);
  auto batches = BuildJoinPlan(world.task.candidates, world.repo,
                               JoinPlanKind::kTableAtATime, 100, {});
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 1u);
}

TEST(JoinPlanTest, BudgetPacksUntilFull) {
  TinyWorld world = MakeTinyWorld(30);
  // Each table estimates 2 features (id + value): budget of 3 forces one
  // table per batch, budget of 10 packs both.
  auto tight = BuildJoinPlan(world.task.candidates, world.repo,
                             JoinPlanKind::kBudget, 3, {});
  EXPECT_EQ(tight.size(), 2u);
  auto loose = BuildJoinPlan(world.task.candidates, world.repo,
                             JoinPlanKind::kBudget, 10, {});
  EXPECT_EQ(loose.size(), 1u);
}

TEST(JoinPlanTest, OversizedTableShipsAlone) {
  TinyWorld world = MakeTinyWorld(30);
  auto batches = BuildJoinPlan(world.task.candidates, world.repo,
                               JoinPlanKind::kBudget, 1, {});
  EXPECT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 1u);
}

TEST(EstimateEncodedFeaturesTest, CountsNumericAndCategorical) {
  df::DataFrame table;
  ASSERT_TRUE(table.AddColumn(df::Column::Double("n", {1, 2, 3})).ok());
  ASSERT_TRUE(
      table.AddColumn(df::Column::String("c", {"a", "b", "a"})).ok());
  df::EncodeOptions encode;
  EXPECT_EQ(EstimateEncodedFeatures(table, encode), 3u);  // 1 + 2 cats
  encode.max_categories = 1;
  EXPECT_EQ(EstimateEncodedFeatures(table, encode), 2u);
}

TEST(ArdaTest, EndToEndImprovesOverBase) {
  TinyWorld world = MakeTinyWorld();
  ArdaConfig config;
  config.rifs.num_rounds = 5;
  Arda arda(config);
  Result<ArdaReport> report = arda.Run(world.task);
  ASSERT_TRUE(report.ok());
  // The hidden feature dominates the target, so augmentation must help.
  EXPECT_GT(report->final_score, report->base_score);
  EXPECT_GT(report->ImprovementPercent(), 10.0);
  EXPECT_TRUE(report->augmented.HasColumn("hidden"));
  EXPECT_GE(report->tables_joined, 1u);
  EXPECT_EQ(report->tables_considered, 2u);
  EXPECT_FALSE(report->batches.empty());
  EXPECT_GT(report->total_seconds, 0.0);
}

TEST(ArdaTest, AugmentedKeepsAllBaseColumns) {
  TinyWorld world = MakeTinyWorld();
  ArdaConfig config;
  config.rifs.num_rounds = 4;
  Arda arda(config);
  Result<ArdaReport> report = arda.Run(world.task);
  ASSERT_TRUE(report.ok());
  for (const std::string& name : {"id", "b", "y"}) {
    EXPECT_TRUE(report->augmented.HasColumn(name)) << name;
  }
}

TEST(ArdaTest, DiscoversCandidatesWhenNoneGiven) {
  TinyWorld world = MakeTinyWorld();
  world.task.candidates.clear();
  ArdaConfig config;
  config.rifs.num_rounds = 4;
  Arda arda(config);
  Result<ArdaReport> report = arda.Run(world.task);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->tables_considered, 2u);
  EXPECT_GT(report->final_score, report->base_score);
}

TEST(ArdaTest, TupleRatioPrefilterDropsTables) {
  TinyWorld world = MakeTinyWorld();
  ArdaConfig config;
  config.rifs.num_rounds = 4;
  config.use_tuple_ratio_prefilter = true;
  config.tuple_ratio_tau = 0.5;  // every table has ratio 1 -> all removed
  Arda arda(config);
  Result<ArdaReport> report = arda.Run(world.task);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->tables_filtered_by_tuple_ratio, 2u);
  EXPECT_EQ(report->tables_joined, 0u);
}

TEST(ArdaTest, AlternativeSelectorRuns) {
  TinyWorld world = MakeTinyWorld();
  ArdaConfig config;
  config.selector = "random_forest";
  Arda arda(config);
  Result<ArdaReport> report = arda.Run(world.task);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->final_score, report->base_score);
}

TEST(ArdaTest, UnknownSelectorFails) {
  TinyWorld world = MakeTinyWorld(40);
  ArdaConfig config;
  config.selector = "bogus";
  Arda arda(config);
  EXPECT_FALSE(arda.Run(world.task).ok());
}

TEST(ArdaTest, MissingRepoOrTargetFails) {
  TinyWorld world = MakeTinyWorld(40);
  AugmentationTask task = world.task;
  task.repo = nullptr;
  EXPECT_FALSE(Arda(ArdaConfig{}).Run(task).ok());
  task = world.task;
  task.target_column = "missing";
  EXPECT_FALSE(Arda(ArdaConfig{}).Run(task).ok());
}

TEST(ArdaTest, CoresetShrinksRows) {
  TinyWorld world = MakeTinyWorld(300);
  ArdaConfig config;
  config.rifs.num_rounds = 3;
  config.coreset.method = coreset::CoresetMethod::kUniform;
  config.coreset.size = 120;
  Arda arda(config);
  Result<ArdaReport> report = arda.Run(world.task);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->augmented.NumRows(), 120u);
}

TEST(ArdaTest, RunsOnHugeNumericClassLabel) {
  // A 0/1 label column with one row set to 1e12: the labels become class
  // ids {0, 1, 2}, so no model sizes a table by the label's value.
  TinyWorld world = MakeTinyWorld(200);
  const df::Column& y = world.task.base.col("y");
  std::vector<double> label(y.size());
  for (size_t r = 0; r < label.size(); ++r) {
    label[r] = y.NumericAt(r) > 0.0 ? 1.0 : 0.0;
  }
  label[7] = 1e12;
  ASSERT_TRUE(world.task.base.AddColumn(df::Column::Double("label", label))
                  .ok());
  world.task.target_column = "label";
  world.task.task = ml::TaskType::kClassification;
  ArdaConfig config;
  config.rifs.num_rounds = 3;
  Result<ArdaReport> report = Arda(config).Run(world.task);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->augmented.HasColumn("label"));
}

TEST(ArdaTest, ImprovementPercentSigns) {
  ArdaReport report;
  report.base_score = 0.5;
  report.final_score = 0.75;
  EXPECT_NEAR(report.ImprovementPercent(), 50.0, 1e-9);
  report.base_score = -10.0;  // regression: -MAE
  report.final_score = -5.0;  // error halved
  EXPECT_NEAR(report.ImprovementPercent(), 50.0, 1e-9);
}

TEST(JoinPlanKindTest, Names) {
  EXPECT_STREQ(JoinPlanKindName(JoinPlanKind::kBudget), "budget");
  EXPECT_STREQ(JoinPlanKindName(JoinPlanKind::kTableAtATime), "table");
  EXPECT_STREQ(JoinPlanKindName(JoinPlanKind::kFullMaterialization),
               "full");
}

}  // namespace
}  // namespace arda::core
