// Golden-output regression tests for the columnar hot-path kernels.
//
// The files under tests/golden/ were serialized from the pre-rewrite
// (PR 1) row-at-a-time kernels at fixed seeds; the pre-sorted split
// search and the interned-key join/group-by paths must reproduce them
// byte for byte, at 1 and at 8 threads. The tied-data forest, tree and
// evaluator goldens were captured from the split search that sorted
// (value, y) pairs of doubles at every node. The RIFS goldens (l2,1 solver,
// moment-matched noise, RunRifs selection) pin the solver and sampler
// loops the same way; the edge-case goldens add vector tails and both
// skip paths. See tools/capture_goldens.cc for
// how to regenerate them (only on an intentional output change).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "simd/simd.h"
#include "tests/golden_fixtures.h"
#include "util/thread_pool.h"

#ifndef ARDA_GOLDEN_DIR
#error "ARDA_GOLDEN_DIR must be defined by the build"
#endif

namespace arda {
namespace {

std::string ReadGolden(const std::string& name) {
  std::string path = std::string(ARDA_GOLDEN_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (run tools/capture_goldens)";
    return "";
  }
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

// The edge-case goldens: the overflowing regression fit and the
// two-class fit leave a vector tail in both solver passes, and the first
// also makes the gradient skip a row (its row scale is 0); the
// constant-row draw makes the covariance skip zero centered values. They
// are computed concurrently on the pool, as RunRifs runs its rankers, so
// `num_threads` 1 and 8 must give the same bits.
const char* const kEdgeCaseGoldenFiles[] = {
    "sparse_regression_overflow.txt", "sparse_regression_two_class.txt",
    "moment_matched_noise_constant_row.txt"};

std::vector<std::string> EdgeCaseGoldens(size_t num_threads) {
  const std::function<std::string()> fixtures[] = {
      [] {
        return golden::GoldenSparseRegression(
            golden::GoldenOverflowRegressionData());
      },
      [] {
        return golden::GoldenSparseRegression(golden::GoldenTwoClassData());
      },
      golden::GoldenConstantRowNoise};
  std::vector<std::string> out(std::size(fixtures));
  ParallelFor(out.size(), num_threads,
              [&](size_t i) { out[i] = fixtures[i](); });
  return out;
}

void ExpectEdgeCaseGoldens(size_t num_threads) {
  SCOPED_TRACE("threads=" + std::to_string(num_threads));
  std::vector<std::string> got = EdgeCaseGoldens(num_threads);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], ReadGolden(kEdgeCaseGoldenFiles[i]))
        << kEdgeCaseGoldenFiles[i];
  }
}

TEST(GoldenKernelsTest, ClassificationTreeBitIdentical) {
  EXPECT_EQ(golden::GoldenClassificationTree(),
            ReadGolden("tree_classification.txt"));
}

TEST(GoldenKernelsTest, RegressionTreeBitIdentical) {
  EXPECT_EQ(golden::GoldenRegressionTree(),
            ReadGolden("tree_regression.txt"));
}

TEST(GoldenKernelsTest, ForestPredictionsBitIdenticalSingleThread) {
  EXPECT_EQ(golden::GoldenForestPredictions(1),
            ReadGolden("forest_predictions.txt"));
}

TEST(GoldenKernelsTest, ForestPredictionsBitIdenticalEightThreads) {
  EXPECT_EQ(golden::GoldenForestPredictions(8),
            ReadGolden("forest_predictions.txt"));
}

// The tied goldens pin the split search on the cases its ordering
// argument covers (DESIGN.md "Columnar split search"): ties in value and
// in (value, y), -0.0 beside +0.0, NaN payloads and bootstrap duplicates.
TEST(GoldenKernelsTest, TiedRegressionForestBitIdentical) {
  EXPECT_EQ(golden::GoldenTiedRegressionForest(1),
            ReadGolden("forest_tied_regression.txt"));
  EXPECT_EQ(golden::GoldenTiedRegressionForest(8),
            ReadGolden("forest_tied_regression.txt"));
}

TEST(GoldenKernelsTest, TiedClassificationForestBitIdentical) {
  EXPECT_EQ(golden::GoldenTiedClassificationForest(1),
            ReadGolden("forest_tied_classification.txt"));
  EXPECT_EQ(golden::GoldenTiedClassificationForest(8),
            ReadGolden("forest_tied_classification.txt"));
}

TEST(GoldenKernelsTest, TiedRegressionTreeBitIdentical) {
  EXPECT_EQ(golden::GoldenTiedRegressionTree(),
            ReadGolden("tree_tied_regression.txt"));
}

TEST(GoldenKernelsTest, EvaluatorScoresBitIdentical) {
  EXPECT_EQ(golden::GoldenEvaluatorScores(),
            ReadGolden("evaluator_scores.txt"));
}

TEST(GoldenKernelsTest, HardJoinBitIdentical) {
  EXPECT_EQ(golden::GoldenHardJoinCsv(), ReadGolden("join_hard.csv"));
}

TEST(GoldenKernelsTest, SoftJoinBitIdentical) {
  EXPECT_EQ(golden::GoldenSoftJoinCsv(), ReadGolden("join_soft.csv"));
}

TEST(GoldenKernelsTest, GeoJoinBitIdentical) {
  EXPECT_EQ(golden::GoldenGeoJoinCsv(), ReadGolden("join_geo.csv"));
}

TEST(GoldenKernelsTest, AggregateBitIdentical) {
  EXPECT_EQ(golden::GoldenAggregateCsv(), ReadGolden("aggregate.csv"));
}

TEST(GoldenKernelsTest, SparseRegressionRegressionBitIdentical) {
  EXPECT_EQ(golden::GoldenSparseRegression(golden::GoldenRegressionData()),
            ReadGolden("sparse_regression_regression.txt"));
}

TEST(GoldenKernelsTest, SparseRegressionWideClassificationBitIdentical) {
  EXPECT_EQ(golden::GoldenSparseRegression(
                golden::GoldenWideClassificationData()),
            ReadGolden("sparse_regression_classification.txt"));
}

TEST(GoldenKernelsTest, MomentMatchedNoiseBitIdentical) {
  // The fixture must exercise the jitter retry: its raw covariance is
  // rank-deficient and does not factor.
  ml::Dataset data = golden::GoldenRankDeficientData();
  la::FeatureMoments moments = la::ComputeFeatureMoments(data.x);
  EXPECT_FALSE(la::Cholesky(moments.covariance).ok());
  EXPECT_EQ(golden::GoldenMomentMatchedNoise(),
            ReadGolden("moment_matched_noise.txt"));
}

TEST(GoldenKernelsTest, SolverAndNoiseEdgeCasesBitIdentical) {
  // The fixtures must reach the paths they pin: an infinite objective
  // (one row's squared residual overflows) with finite norms, and a
  // covariance row that stays all zero because every centered value of
  // the constant row is skipped.
  ml::Dataset overflow = golden::GoldenOverflowRegressionData();
  ml::SparseRegressionConfig config;
  ml::L21SparseRegression model(config);
  model.Fit(overflow.x, overflow.y);
  EXPECT_TRUE(std::isinf(model.final_objective()));
  for (double norm : model.FeatureNorms()) EXPECT_TRUE(std::isfinite(norm));
  ml::Dataset constant = golden::GoldenConstantRowData();
  la::FeatureMoments moments = la::ComputeFeatureMoments(constant.x);
  for (size_t j = 0; j < moments.covariance.cols(); ++j) {
    EXPECT_EQ(moments.covariance(5, j), 0.0);
  }
  ExpectEdgeCaseGoldens(1);
  ExpectEdgeCaseGoldens(8);
}

TEST(GoldenKernelsTest, RifsSelectionBitIdentical) {
  EXPECT_EQ(golden::GoldenRifsSelection(1), ReadGolden("rifs_selection.txt"));
  EXPECT_EQ(golden::GoldenRifsSelection(4), ReadGolden("rifs_selection.txt"));
}

// Every golden must reproduce at every SIMD dispatch level: the vector
// kernels are bit-identical to their scalar fallbacks by contract (see
// DESIGN.md "SIMD dispatch"). The avx2 pass is skipped when the CPU lacks
// AVX2 or the ARDA_SIMD=scalar env pin is active (the dedicated scalar
// ctest leg must stay genuinely scalar).
TEST(GoldenKernelsTest, GoldensAreSimdLevelInvariant) {
  const simd::SimdLevel prev = simd::ActiveLevel();
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  const char* env = std::getenv("ARDA_SIMD");
  const bool pinned_scalar =
      env != nullptr && std::string_view(env) == "scalar";
  if (simd::Avx2Supported() && !pinned_scalar) {
    levels.push_back(simd::SimdLevel::kAvx2);
  }
  for (simd::SimdLevel level : levels) {
    ASSERT_TRUE(simd::SetLevel(level));
    SCOPED_TRACE(simd::LevelName(level));
    EXPECT_EQ(golden::GoldenClassificationTree(),
              ReadGolden("tree_classification.txt"));
    EXPECT_EQ(golden::GoldenRegressionTree(),
              ReadGolden("tree_regression.txt"));
    EXPECT_EQ(golden::GoldenHardJoinCsv(), ReadGolden("join_hard.csv"));
    EXPECT_EQ(golden::GoldenSoftJoinCsv(), ReadGolden("join_soft.csv"));
    EXPECT_EQ(golden::GoldenGeoJoinCsv(), ReadGolden("join_geo.csv"));
    EXPECT_EQ(golden::GoldenAggregateCsv(), ReadGolden("aggregate.csv"));
    // Thread-count sweep inside the level sweep: the dispatch level and
    // the pool must be independently invariant.
    EXPECT_EQ(golden::GoldenForestPredictions(1),
              ReadGolden("forest_predictions.txt"));
    EXPECT_EQ(golden::GoldenForestPredictions(8),
              ReadGolden("forest_predictions.txt"));
    EXPECT_EQ(golden::GoldenTiedRegressionTree(),
              ReadGolden("tree_tied_regression.txt"));
    for (size_t threads : {size_t{1}, size_t{8}}) {
      EXPECT_EQ(golden::GoldenTiedRegressionForest(threads),
                ReadGolden("forest_tied_regression.txt"));
      EXPECT_EQ(golden::GoldenTiedClassificationForest(threads),
                ReadGolden("forest_tied_classification.txt"));
    }
    EXPECT_EQ(golden::GoldenEvaluatorScores(),
              ReadGolden("evaluator_scores.txt"));
    EXPECT_EQ(golden::GoldenSparseRegression(golden::GoldenRegressionData()),
              ReadGolden("sparse_regression_regression.txt"));
    EXPECT_EQ(golden::GoldenSparseRegression(
                  golden::GoldenWideClassificationData()),
              ReadGolden("sparse_regression_classification.txt"));
    EXPECT_EQ(golden::GoldenMomentMatchedNoise(),
              ReadGolden("moment_matched_noise.txt"));
    EXPECT_EQ(golden::GoldenRifsSelection(1),
              ReadGolden("rifs_selection.txt"));
    ExpectEdgeCaseGoldens(1);
    ExpectEdgeCaseGoldens(8);
  }
  simd::SetLevel(prev);
}

// The radix-partitioned out-of-core kernels must reproduce the goldens at
// every partition count, at every SIMD dispatch level: partitioning is a
// memory-shape knob, never an output knob (DESIGN.md "Out-of-core
// execution"). 1 = the partitioned machinery with one partition, 2 = the
// smallest real fan-out, 7 = a count that exercises non-power-of-two
// modulo placement.
TEST(GoldenKernelsTest, GoldensArePartitionCountInvariant) {
  const simd::SimdLevel prev = simd::ActiveLevel();
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  const char* env = std::getenv("ARDA_SIMD");
  const bool pinned_scalar =
      env != nullptr && std::string_view(env) == "scalar";
  if (simd::Avx2Supported() && !pinned_scalar) {
    levels.push_back(simd::SimdLevel::kAvx2);
  }
  for (simd::SimdLevel level : levels) {
    ASSERT_TRUE(simd::SetLevel(level));
    for (size_t partitions : {size_t{1}, size_t{2}, size_t{7}}) {
      SCOPED_TRACE(std::string(simd::LevelName(level)) + " partitions=" +
                   std::to_string(partitions));
      EXPECT_EQ(golden::GoldenHardJoinCsv(partitions),
                ReadGolden("join_hard.csv"));
      EXPECT_EQ(golden::GoldenSoftJoinCsv(partitions),
                ReadGolden("join_soft.csv"));
      EXPECT_EQ(golden::GoldenAggregateCsv(partitions),
                ReadGolden("aggregate.csv"));
    }
  }
  simd::SetLevel(prev);
}

}  // namespace
}  // namespace arda
