// Writes the golden-output fixtures for tests/golden_kernels_test.cc into
// the directory given as argv[1] (tests/golden/ in the source tree).
//
// The fixtures pin the exact bit-level outputs of the decision-tree and
// join/group-by kernels at fixed seeds. They were generated from the
// pre-rewrite (PR 1) row-at-a-time kernels; the columnar kernels must
// reproduce them byte for byte. The RIFS fixtures (l2,1 solver, moment-
// matched noise draw, RunRifs selection) were captured from the solver
// and sampler that refit Algorithm 2 every round and recomputed X*W on
// every evaluation. Re-run this tool ONLY when an intentional output
// change is being made, and say so in the PR.

#include <cstdio>
#include <string>

#include "data/generators.h"
#include "dataframe/aggregate.h"
#include "dataframe/csv.h"
#include "featsel/rifs.h"
#include "join/geo_join.h"
#include "join/join_executor.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "tests/golden_fixtures.h"
#include "util/check.h"

namespace arda {
namespace {

void WriteFile(const std::string& dir, const std::string& name,
               const std::string& content) {
  std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ARDA_CHECK(f != nullptr);
  ARDA_CHECK_EQ(std::fwrite(content.data(), 1, content.size(), f),
                content.size());
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

}  // namespace
}  // namespace arda

int main(int argc, char** argv) {
  using namespace arda;
  ARDA_CHECK_EQ(argc, 2);
  const std::string dir = argv[1];

  WriteFile(dir, "tree_classification.txt",
            golden::GoldenClassificationTree());
  WriteFile(dir, "tree_regression.txt", golden::GoldenRegressionTree());
  WriteFile(dir, "forest_predictions.txt",
            golden::GoldenForestPredictions(1));
  WriteFile(dir, "forest_tied_regression.txt",
            golden::GoldenTiedRegressionForest(1));
  WriteFile(dir, "forest_tied_classification.txt",
            golden::GoldenTiedClassificationForest(1));
  WriteFile(dir, "tree_tied_regression.txt",
            golden::GoldenTiedRegressionTree());
  WriteFile(dir, "evaluator_scores.txt", golden::GoldenEvaluatorScores());
  WriteFile(dir, "join_hard.csv", golden::GoldenHardJoinCsv());
  WriteFile(dir, "join_soft.csv", golden::GoldenSoftJoinCsv());
  WriteFile(dir, "join_geo.csv", golden::GoldenGeoJoinCsv());
  WriteFile(dir, "aggregate.csv", golden::GoldenAggregateCsv());
  WriteFile(dir, "sparse_regression_regression.txt",
            golden::GoldenSparseRegression(golden::GoldenRegressionData()));
  WriteFile(dir, "sparse_regression_classification.txt",
            golden::GoldenSparseRegression(
                golden::GoldenWideClassificationData()));
  WriteFile(dir, "moment_matched_noise.txt",
            golden::GoldenMomentMatchedNoise());
  WriteFile(dir, "rifs_selection.txt", golden::GoldenRifsSelection(1));
  return 0;
}
