#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "ml/decision_tree.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/sparse_regression.h"
#include "ml/svm_rbf.h"
#include "ml/training_view.h"
#include "util/rng.h"

namespace arda::ml {
namespace {

// Two well-separated Gaussian blobs; feature 0 carries the signal,
// feature 1 is noise.
struct BlobData {
  la::Matrix x;
  std::vector<double> y;
};

BlobData MakeBlobs(size_t n, uint64_t seed) {
  Rng rng(seed);
  BlobData data;
  data.x = la::Matrix(n, 2);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    bool positive = i % 2 == 0;
    data.y[i] = positive ? 1.0 : 0.0;
    data.x(i, 0) = rng.Normal(positive ? 2.0 : -2.0, 0.7);
    data.x(i, 1) = rng.Normal(0.0, 1.0);
  }
  return data;
}

// y = step function of feature 0 (regression).
BlobData MakeStepRegression(size_t n, uint64_t seed) {
  Rng rng(seed);
  BlobData data;
  data.x = la::Matrix(n, 2);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.Uniform(-1.0, 1.0);
    data.x(i, 1) = rng.Normal(0.0, 1.0);
    data.y[i] = data.x(i, 0) > 0.0 ? 10.0 : -10.0;
  }
  return data;
}

TEST(DecisionTreeTest, LearnsStepFunction) {
  BlobData data = MakeStepRegression(300, 1);
  TreeConfig config;
  config.task = TaskType::kRegression;
  DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  std::vector<double> pred = tree.Predict(data.x);
  EXPECT_LT(MeanAbsoluteError(data.y, pred), 0.5);
  EXPECT_GT(tree.NumNodes(), 1u);
}

TEST(DecisionTreeTest, ClassifiesBlobs) {
  BlobData data = MakeBlobs(300, 2);
  TreeConfig config;
  config.task = TaskType::kClassification;
  DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  EXPECT_GT(Accuracy(data.y, tree.Predict(data.x)), 0.95);
}

TEST(DecisionTreeTest, ImportanceConcentratesOnSignalFeature) {
  BlobData data = MakeBlobs(400, 3);
  TreeConfig config;
  config.task = TaskType::kClassification;
  DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  const std::vector<double>& imp = tree.feature_importances();
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(DecisionTreeTest, MaxDepthZeroGivesSingleLeaf) {
  BlobData data = MakeBlobs(50, 4);
  TreeConfig config;
  config.task = TaskType::kClassification;
  config.max_depth = 0;
  DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  EXPECT_EQ(tree.NumNodes(), 1u);
  // Single leaf predicts the majority class everywhere.
  std::vector<double> pred = tree.Predict(data.x);
  for (size_t i = 1; i < pred.size(); ++i) {
    EXPECT_DOUBLE_EQ(pred[i], pred[0]);
  }
}

TEST(DecisionTreeTest, ConstantTargetIsLeaf) {
  la::Matrix x(10, 1);
  std::vector<double> y(10, 3.0);
  TreeConfig config;
  config.task = TaskType::kRegression;
  DecisionTree tree(config);
  tree.Fit(x, y);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict(x)[0], 3.0);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  BlobData data = MakeBlobs(100, 5);
  TreeConfig config;
  config.task = TaskType::kClassification;
  config.min_samples_leaf = 40;
  DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  // With leaves of >= 40, at most 3 nodes (1 split).
  EXPECT_LE(tree.NumNodes(), 3u);
}

TEST(RandomForestTest, RegressionBeatsSingleNoisyFit) {
  BlobData data = MakeStepRegression(400, 6);
  ForestConfig config;
  config.task = TaskType::kRegression;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.Fit(data.x, data.y);
  EXPECT_LT(MeanAbsoluteError(data.y, forest.Predict(data.x)), 1.0);
  EXPECT_EQ(forest.NumTrees(), 20u);
}

TEST(RandomForestTest, ClassificationAccuracyAndImportances) {
  BlobData data = MakeBlobs(400, 7);
  ForestConfig config;
  config.task = TaskType::kClassification;
  config.num_trees = 15;
  RandomForest forest(config);
  forest.Fit(data.x, data.y);
  EXPECT_GT(Accuracy(data.y, forest.Predict(data.x)), 0.95);
  EXPECT_GT(forest.feature_importances()[0],
            forest.feature_importances()[1]);
}

TEST(RandomForestTest, DeterministicForSeed) {
  BlobData data = MakeBlobs(200, 8);
  ForestConfig config;
  config.task = TaskType::kClassification;
  config.num_trees = 5;
  config.seed = 99;
  RandomForest a(config), b(config);
  a.Fit(data.x, data.y);
  b.Fit(data.x, data.y);
  EXPECT_EQ(a.Predict(data.x), b.Predict(data.x));
}

TEST(RandomForestTest, MulticlassVoting) {
  Rng rng(9);
  la::Matrix x(300, 1);
  std::vector<double> y(300);
  for (size_t i = 0; i < 300; ++i) {
    size_t cls = i % 3;
    y[i] = static_cast<double>(cls);
    x(i, 0) = rng.Normal(static_cast<double>(cls) * 5.0, 0.5);
  }
  ForestConfig config;
  config.task = TaskType::kClassification;
  config.num_trees = 10;
  RandomForest forest(config);
  forest.Fit(x, y);
  EXPECT_GT(Accuracy(y, forest.Predict(x)), 0.95);
}

TEST(RidgeTest, RecoversLinearFunction) {
  Rng rng(10);
  la::Matrix x(300, 3);
  std::vector<double> y(300);
  for (size_t i = 0; i < 300; ++i) {
    for (size_t c = 0; c < 3; ++c) x(i, c) = rng.Normal();
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + 5.0;
  }
  RidgeRegression model(1e-4);
  model.Fit(x, y);
  EXPECT_LT(MeanAbsoluteError(y, model.Predict(x)), 0.05);
}

TEST(LassoTest, SparseRecovery) {
  Rng rng(11);
  const size_t n = 200, d = 20;
  la::Matrix x(n, d);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) x(i, c) = rng.Normal();
    y[i] = 4.0 * x(i, 0) - 3.0 * x(i, 5) + rng.Normal(0.0, 0.1);
  }
  Lasso model(0.1);
  model.Fit(x, y);
  // Only the two true features should have large weights.
  EXPECT_GT(std::fabs(model.weights()[0]), 1.0);
  EXPECT_GT(std::fabs(model.weights()[5]), 1.0);
  size_t spurious = 0;
  for (size_t c = 0; c < d; ++c) {
    if (c != 0 && c != 5 && std::fabs(model.weights()[c]) > 0.2) ++spurious;
  }
  EXPECT_EQ(spurious, 0u);
  EXPECT_LE(model.NumNonZero(), d);
}

TEST(LassoTest, HugeAlphaZeroesEverything) {
  Rng rng(12);
  la::Matrix x(50, 3);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t c = 0; c < 3; ++c) x(i, c) = rng.Normal();
    y[i] = x(i, 0);
  }
  Lasso model(100.0);
  model.Fit(x, y);
  EXPECT_EQ(model.NumNonZero(), 0u);
}

TEST(LogisticTest, SeparatesBlobs) {
  BlobData data = MakeBlobs(300, 13);
  LogisticRegression model;
  model.Fit(data.x, data.y);
  EXPECT_GT(Accuracy(data.y, model.Predict(data.x)), 0.95);
  std::vector<double> imp = model.CoefImportances();
  EXPECT_GT(imp[0], imp[1]);
}

TEST(LogisticTest, MulticlassOneVsRest) {
  Rng rng(14);
  la::Matrix x(300, 2);
  std::vector<double> y(300);
  for (size_t i = 0; i < 300; ++i) {
    size_t cls = i % 3;
    y[i] = static_cast<double>(cls);
    x(i, 0) = rng.Normal(cls == 1 ? 4.0 : (cls == 2 ? -4.0 : 0.0), 0.6);
    x(i, 1) = rng.Normal(cls == 0 ? 4.0 : -1.0, 0.6);
  }
  LogisticRegression model;
  model.Fit(x, y);
  EXPECT_GT(Accuracy(y, model.Predict(x)), 0.9);
}

TEST(LinearSvmTest, SeparatesBlobs) {
  BlobData data = MakeBlobs(300, 15);
  LinearSvm model;
  model.Fit(data.x, data.y);
  EXPECT_GT(Accuracy(data.y, model.Predict(data.x)), 0.95);
  EXPECT_GT(model.CoefImportances()[0], model.CoefImportances()[1]);
}

TEST(SparseRegressionTest, FeatureNormsFindSignal) {
  Rng rng(16);
  const size_t n = 150, d = 12;
  la::Matrix x(n, d);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) x(i, c) = rng.Normal();
    y[i] = 5.0 * x(i, 2) + rng.Normal(0.0, 0.2);
  }
  SparseRegressionConfig config;
  config.task = TaskType::kRegression;
  L21SparseRegression model(config);
  model.Fit(x, y);
  std::vector<double> norms = model.FeatureNorms();
  for (size_t c = 0; c < d; ++c) {
    if (c != 2) EXPECT_GT(norms[2], norms[c]);
  }
}

TEST(SparseRegressionTest, ObjectiveDecreases) {
  Rng rng(17);
  la::Matrix x(80, 5);
  std::vector<double> y(80);
  for (size_t i = 0; i < 80; ++i) {
    for (size_t c = 0; c < 5; ++c) x(i, c) = rng.Normal();
    y[i] = x(i, 0) - x(i, 3);
  }
  SparseRegressionConfig short_run;
  short_run.max_iters = 2;
  L21SparseRegression a(short_run);
  a.Fit(x, y);
  SparseRegressionConfig long_run;
  long_run.max_iters = 200;
  L21SparseRegression b(long_run);
  b.Fit(x, y);
  EXPECT_LE(b.final_objective(), a.final_objective() + 1e-9);
}

TEST(SparseRegressionTest, ClassificationRanking) {
  BlobData data = MakeBlobs(200, 18);
  SparseRegressionConfig config;
  config.task = TaskType::kClassification;
  L21SparseRegression model(config);
  model.Fit(data.x, data.y);
  std::vector<double> norms = model.FeatureNorms();
  EXPECT_GT(norms[0], norms[1]);
  EXPECT_GT(Accuracy(data.y, model.Predict(data.x)), 0.9);
}

TEST(RbfSvmTest, SolvesXorLikeProblem) {
  // XOR is not linearly separable; the RBF kernel handles it.
  Rng rng(19);
  la::Matrix x(200, 2);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    double a = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    double b = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    x(i, 0) = a + rng.Normal(0.0, 0.2);
    x(i, 1) = b + rng.Normal(0.0, 0.2);
    y[i] = a * b > 0 ? 1.0 : 0.0;
  }
  RbfSvmConfig config;
  config.c = 5.0;
  RbfSvm svm(config);
  svm.Fit(x, y);
  EXPECT_GT(Accuracy(y, svm.Predict(x)), 0.9);

  LinearSvm linear;
  linear.Fit(x, y);
  EXPECT_LT(Accuracy(y, linear.Predict(x)), 0.75);  // linear can't
}

TEST(RbfSvmTest, MulticlassOneVsRest) {
  Rng rng(20);
  la::Matrix x(240, 2);
  std::vector<double> y(240);
  for (size_t i = 0; i < 240; ++i) {
    size_t cls = i % 3;
    y[i] = static_cast<double>(cls);
    double angle = 2.0 * M_PI * static_cast<double>(cls) / 3.0;
    x(i, 0) = 3.0 * std::cos(angle) + rng.Normal(0.0, 0.4);
    x(i, 1) = 3.0 * std::sin(angle) + rng.Normal(0.0, 0.4);
  }
  RbfSvm svm;
  svm.Fit(x, y);
  EXPECT_GT(Accuracy(y, svm.Predict(x)), 0.92);
}

// --- NaN feature ordering contract (see decision_tree.h): every NaN
// sorts after +inf, all NaNs compare equal, thresholds are never
// non-finite, and NaN rows fall to the right child. ---

// Regression data whose single informative signal lives in two identical
// columns, both salted with NaNs. Duplicating the column lets the
// per-node-sampling mode (max_features=1) see an equivalent candidate at
// every node, so its *predictions* must be bit-identical to the
// pre-sorted mode's even though the sampled column index varies.
struct NanData {
  la::Matrix x;
  std::vector<double> y;
};

NanData MakeNanData(size_t n, uint64_t seed) {
  Rng rng(seed);
  NanData data;
  data.x = la::Matrix(n, 2);
  data.y.resize(n);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < n; ++i) {
    double v = std::round(rng.Normal() * 4.0) / 4.0;
    if (i % 7 == 0) v = nan;  // ~14% missing
    data.x(i, 0) = v;
    data.x(i, 1) = v;
    data.y[i] = std::isnan(v) ? 5.0 : 2.0 * v + rng.Normal(0.0, 0.05);
  }
  return data;
}

TEST(DecisionTreeNanTest, PresortAndPerNodeSortAgreeOnNanOrdering) {
  NanData data = MakeNanData(240, 11);
  TreeConfig presort_config;
  presort_config.task = TaskType::kRegression;
  presort_config.seed = 3;
  DecisionTree presorted(presort_config);  // max_features=0 -> pre-sorted
  presorted.Fit(data.x, data.y);

  TreeConfig pernode_config = presort_config;
  pernode_config.max_features = 1;  // forces the per-node gather-and-sort
  DecisionTree pernode(pernode_config);
  pernode.Fit(data.x, data.y);

  // Neither mode may place a threshold on a non-finite midpoint.
  EXPECT_EQ(presorted.Serialize().find("nan"), std::string::npos);
  EXPECT_EQ(presorted.Serialize().find("inf"), std::string::npos);
  EXPECT_EQ(pernode.Serialize().find("nan"), std::string::npos);
  EXPECT_EQ(pernode.Serialize().find("inf"), std::string::npos);

  // The duplicated column makes every sampled candidate equivalent, so a
  // shared NaN ordering forces bit-identical predictions across modes.
  std::vector<double> a = presorted.Predict(data.x);
  std::vector<double> b = pernode.Predict(data.x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
}

TEST(DecisionTreeNanTest, NanRowsFallToTheRightChild) {
  // Feature values 0..3 plus NaNs whose targets match the largest finite
  // value's: a NaN probe must land in the rightmost leaf.
  la::Matrix x(8, 1);
  std::vector<double> y;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> vals = {0.0, 1.0, 2.0, 3.0, 0.0, 1.0, nan, nan};
  for (size_t i = 0; i < vals.size(); ++i) {
    x(i, 0) = vals[i];
    double v = std::isnan(vals[i]) ? 3.0 : vals[i];
    y.push_back(v >= 2.0 ? 10.0 : -10.0);
  }
  TreeConfig config;
  config.task = TaskType::kRegression;
  config.seed = 1;
  DecisionTree tree(config);
  tree.Fit(x, y);

  la::Matrix probe(2, 1);
  probe(0, 0) = nan;
  probe(1, 0) = 3.0;
  std::vector<double> pred = tree.Predict(probe);
  // NaN and the largest finite value route identically (both rightward).
  EXPECT_EQ(pred[0], pred[1]);
  EXPECT_DOUBLE_EQ(pred[0], 10.0);
}

TEST(DecisionTreeNanTest, AllNanColumnIsTreatedAsConstant) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  la::Matrix x(20, 2);
  std::vector<double> y;
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = nan;  // never splittable
    x(i, 1) = static_cast<double>(i);
    y.push_back(i < 10 ? -1.0 : 1.0);
  }
  TreeConfig config;
  config.task = TaskType::kRegression;
  config.seed = 2;
  DecisionTree tree(config);
  tree.Fit(x, y);
  // The split must come from the finite column, and importances must not
  // credit the all-NaN one.
  EXPECT_GT(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.feature_importances()[0], 0.0);
  EXPECT_GT(tree.feature_importances()[1], 0.0);
}

// --- TrainingView ranks (see training_view.h): the rank of (value,
// target) must order rows exactly as the split search's pair order does,
// with -0.0 tied to +0.0 and every NaN tied and last. ---

// The pair order, written out as a reference: NaN after everything, all
// NaNs equal, operator< elsewhere (so -0.0 == +0.0); value first, then
// target.
int ComparePairs(double va, double ya, double vb, double yb) {
  auto cmp = [](double a, double b) {
    if (std::isnan(a) || std::isnan(b)) {
      return std::isnan(a) == std::isnan(b) ? 0 : (std::isnan(a) ? 1 : -1);
    }
    return a < b ? -1 : (b < a ? 1 : 0);
  };
  int c = cmp(va, vb);
  return c != 0 ? c : cmp(ya, yb);
}

double NanWithBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(TrainingViewTest, RanksMatchPairOrderOracle) {
  const double kValues[] = {-1.5,
                            -0.0,
                            0.0,
                            2.25,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            NanWithBits(0x7ff8000000000000ull),
                            NanWithBits(0x7ff8000000000042ull),
                            NanWithBits(0xfff8000000000000ull)};
  const double kTargets[] = {-1.0, -0.0, 0.0, 0.5, 3.0};
  for (TaskType task : {TaskType::kRegression, TaskType::kClassification}) {
    Rng rng(task == TaskType::kRegression ? 21 : 22);
    const size_t n = 400;
    la::Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      x(i, 0) = kValues[rng.UniformUint64(std::size(kValues))];
      x(i, 1) = std::round(rng.Normal() * 3.0) / 3.0;
      x(i, 2) = rng.Normal();
      y[i] = task == TaskType::kRegression
                 ? kTargets[rng.UniformUint64(std::size(kTargets))]
                 : static_cast<double>(rng.UniformUint64(3));
    }
    TrainingView full(x, y, task, /*num_threads=*/2);
    // A reordered subset sharing storage: view column c is matrix column
    // kColumns[c].
    const std::vector<size_t> kColumns = {2, 0, 1};
    TrainingView view = full.Select(kColumns);
    ASSERT_EQ(view.cols(), 3u);
    ASSERT_EQ(view.rows(), n);
    for (size_t c = 0; c < view.cols(); ++c) {
      const size_t col = kColumns[c];
      const uint32_t* ranks = view.ranks(c);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_LT(ranks[i], view.num_ranks(c));
        EXPECT_EQ(std::memcmp(&view.column(c)[i], &x(i, col), sizeof(double)),
                  0);
        // The tables hand back an equivalent (value, target) pair.
        EXPECT_EQ(ComparePairs(view.rank_values(c)[ranks[i]],
                               view.rank_targets(c)[ranks[i]], x(i, col),
                               view.targets()[i]),
                  0);
      }
      for (size_t i = 0; i < n; i += 7) {
        for (size_t j = 0; j < n; ++j) {
          const int order = ComparePairs(x(i, col), view.targets()[i],
                                         x(j, col), view.targets()[j]);
          const int rank_order =
              ranks[i] < ranks[j] ? -1 : (ranks[i] > ranks[j] ? 1 : 0);
          ASSERT_EQ(order, rank_order) << "column " << col << " rows " << i
                                       << ", " << j;
        }
      }
    }
  }
}

TEST(TrainingViewTest, TreeOnViewRowsEqualsTreeOnSelectedRows) {
  // Rows with repeats, as a bootstrap draws them: fitting on indices into
  // the view must match fitting on the copied rows bit for bit, in both
  // split-search modes.
  NanData data = MakeNanData(180, 5);
  Rng rng(8);
  std::vector<size_t> rows = rng.SampleWithReplacement(180, 180);
  la::Matrix xb = data.x.SelectRows(rows);
  std::vector<double> yb;
  for (size_t r : rows) yb.push_back(data.y[r]);
  TrainingView view(data.x, data.y, TaskType::kRegression,
                    /*num_threads=*/1);
  for (size_t max_features : {size_t{0}, size_t{1}}) {
    TreeConfig config;
    config.task = TaskType::kRegression;
    config.max_features = max_features;
    config.seed = 4;
    DecisionTree on_view(config);
    on_view.Fit(view, rows);
    DecisionTree on_copy(config);
    on_copy.Fit(xb, yb);
    EXPECT_EQ(on_view.Serialize(), on_copy.Serialize())
        << "max_features " << max_features;
  }
}

}  // namespace
}  // namespace arda::ml
