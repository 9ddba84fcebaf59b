#ifndef ARDA_TESTS_GOLDEN_FIXTURES_H_
#define ARDA_TESTS_GOLDEN_FIXTURES_H_

// Fixed-seed workloads whose exact outputs are pinned as golden files in
// tests/golden/ (generated once by tools/capture_goldens from the
// pre-rewrite kernels). Shared by the capture tool and
// golden_kernels_test so both always run the identical workload.
//
// The inputs deliberately contain the awkward cases the kernels must
// preserve bit for bit: tied feature values (split tie-breaks), nulls in
// key columns (null-vs-value grouping), duplicate foreign keys (the
// pre-aggregation path), categorical mode ties (lexicographic winner),
// and double keys that differ in bits but collide under the "%.10g"
// rendering that defines key equality.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "data/generators.h"
#include "dataframe/aggregate.h"
#include "dataframe/csv.h"
#include "featsel/rifs.h"
#include "join/geo_join.h"
#include "join/join_executor.h"
#include "la/linalg.h"
#include "ml/decision_tree.h"
#include "ml/evaluator.h"
#include "ml/random_forest.h"
#include "ml/sparse_regression.h"
#include "util/check.h"
#include "util/string_util.h"

namespace arda::golden {

inline ml::Dataset GoldenRegressionData() {
  Rng rng(9);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 300, cols = 24;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Quantized values create tied feature values at many thresholds.
      data.x(r, c) = std::round(rng.Normal() * 8.0) / 8.0;
    }
    data.y[r] = data.x(r, 0) - 0.5 * data.x(r, 1) + rng.Normal(0.0, 0.1);
  }
  for (size_t c = 0; c < cols; ++c) {
    data.feature_names.push_back("f" + std::to_string(c));
  }
  return data;
}

inline std::string GoldenClassificationTree() {
  data::MicroBenchmark digits = data::MakeDigitsBenchmark(5, 2.0);
  ml::TreeConfig config;
  config.task = ml::TaskType::kClassification;
  config.seed = 5;
  ml::DecisionTree tree(config);
  tree.Fit(digits.data.x, digits.data.y);
  return tree.Serialize();
}

inline std::string GoldenRegressionTree() {
  ml::Dataset data = GoldenRegressionData();
  ml::TreeConfig config;
  config.task = ml::TaskType::kRegression;
  config.seed = 9;
  ml::DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  return tree.Serialize();
}

/// Forest predictions + importances, hexfloat, at the given thread count.
/// Thread-count invariance means the same string for any `num_threads`.
inline std::string GoldenForestPredictions(size_t num_threads) {
  data::MicroBenchmark digits = data::MakeDigitsBenchmark(7, 2.0);
  ml::ForestConfig config;
  config.task = ml::TaskType::kClassification;
  config.num_trees = 8;
  config.num_threads = num_threads;
  config.seed = 7;
  ml::RandomForest forest(config);
  forest.Fit(digits.data.x, digits.data.y);
  std::string out;
  for (double v : forest.Predict(digits.data.x)) {
    out += StrFormat("%a\n", v);
  }
  out += "importances\n";
  for (double v : forest.feature_importances()) {
    out += StrFormat("%a\n", v);
  }
  return out;
}

/// A NaN with the given bit pattern (payload and sign).
inline double NanFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  ARDA_CHECK(std::isnan(d));
  return d;
}

/// Regression data full of the ties the split search must order exactly:
/// quantized columns (ties in value and in (value, y)), -0.0 beside +0.0
/// in features and in y, and NaN cells with four different payloads, two
/// of them negative-signed. y takes few values, all multiples of 0.1, and
/// is never NaN.
inline ml::Dataset GoldenTiedRegressionData() {
  static const uint64_t kNanBits[] = {
      0x7ff8000000000000ull, 0x7ff8000000000123ull, 0xfff8000000000000ull,
      0xfff800000000abcdull};
  Rng rng(83);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 240, cols = 8;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    double a = std::round(rng.Normal() * 2.0) / 2.0;
    if (a == 0.0) a = r % 2 == 0 ? -0.0 : 0.0;
    double b = static_cast<double>(rng.UniformUint64(2));
    double c = static_cast<double>(rng.UniformUint64(3)) - 1.0;
    if (c == 0.0) c = r % 3 == 0 ? -0.0 : 0.0;
    data.x(r, 0) = a;
    data.x(r, 1) = b;
    data.x(r, 2) = c;
    data.x(r, 3) = r % 9 == 4 ? NanFromBits(kNanBits[(r / 9) % 4])
                              : std::round(rng.Normal() * 4.0) / 4.0;
    data.x(r, 4) = rng.Normal();
    data.x(r, 5) = r % 5 == 0 ? NanFromBits(kNanBits[(r / 5) % 4])
                              : std::round(rng.Uniform(0.0, 6.0));
    data.x(r, 6) = r % 7 == 1 ? (r % 2 == 0 ? -0.0 : 0.0)
                              : std::round(rng.Normal() * 8.0) / 8.0;
    data.x(r, 7) = r % 3 == 0 ? NanFromBits(kNanBits[r % 4])
                              : static_cast<double>(rng.UniformUint64(4));
    // Multiples of 0.1 are inexact in binary, so scan sums depend on the
    // order of tied rows: a wrong tie order changes their bits.
    double y = 0.1 * std::round(4.0 * (a - 0.5 * b + 0.25 * c +
                                       rng.Normal(0.0, 0.3)));
    if (y == 0.0) y = r % 4 < 2 ? -0.0 : 0.0;
    data.y[r] = y;
  }
  for (size_t c = 0; c < cols; ++c) {
    data.feature_names.push_back("t" + std::to_string(c));
  }
  return data;
}

/// Three-class data on heavily tied columns: four binary and four
/// 3-level features (their zeros alternate -0.0 and +0.0).
inline ml::Dataset GoldenTiedClassificationData() {
  Rng rng(89);
  ml::Dataset data;
  data.task = ml::TaskType::kClassification;
  const size_t rows = 300, cols = 8;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double v = static_cast<double>(rng.UniformUint64(c < 4 ? 2 : 3));
      if (v == 0.0 && (r + c) % 2 == 0) v = -0.0;
      data.x(r, c) = v;
    }
    const double score = data.x(r, 0) + data.x(r, 4) - 0.5 * data.x(r, 1) +
                         rng.Normal(0.0, 0.6);
    data.y[r] = score < 0.5 ? 0.0 : (score < 1.5 ? 1.0 : 2.0);
  }
  for (size_t c = 0; c < cols; ++c) {
    data.feature_names.push_back("k" + std::to_string(c));
  }
  return data;
}

/// Forest predictions on the training rows and importances, hexfloat.
inline std::string SerializeForest(const ml::RandomForest& forest,
                                   const la::Matrix& x) {
  std::string out;
  for (double v : forest.Predict(x)) out += StrFormat("%a\n", v);
  out += "importances\n";
  for (double v : forest.feature_importances()) {
    out += StrFormat("%a\n", v);
  }
  return out;
}

/// Regression forest (per-node split search on bootstrap samples with
/// duplicates) over the tie/±0/NaN data, at the given thread count.
inline std::string GoldenTiedRegressionForest(size_t num_threads) {
  ml::Dataset data = GoldenTiedRegressionData();
  ml::ForestConfig config;
  config.task = ml::TaskType::kRegression;
  config.num_trees = 12;
  config.num_threads = num_threads;
  config.seed = 97;
  ml::RandomForest forest(config);
  forest.Fit(data.x, data.y);
  return SerializeForest(forest, data.x);
}

/// Classification forest over the binary and 3-level columns.
inline std::string GoldenTiedClassificationForest(size_t num_threads) {
  ml::Dataset data = GoldenTiedClassificationData();
  ml::ForestConfig config;
  config.task = ml::TaskType::kClassification;
  config.num_trees = 12;
  config.num_threads = num_threads;
  config.seed = 101;
  ml::RandomForest forest(config);
  forest.Fit(data.x, data.y);
  return SerializeForest(forest, data.x);
}

/// Single regression tree (every feature a candidate at every node) over
/// the tie/±0/NaN data, plus its importances.
inline std::string GoldenTiedRegressionTree() {
  ml::Dataset data = GoldenTiedRegressionData();
  ml::TreeConfig config;
  config.task = ml::TaskType::kRegression;
  config.seed = 103;
  ml::DecisionTree tree(config);
  tree.Fit(data.x, data.y);
  std::string out = tree.Serialize();
  out += "importances\n";
  for (double v : tree.feature_importances()) out += StrFormat("%a\n", v);
  return out;
}

/// Evaluator scores, hexfloat: ScoreFeatures on the reordered subset
/// {5, 1, 3}, ScoreAllFeatures and FinalScore on all features, for the
/// tied regression and classification data.
inline std::string GoldenEvaluatorScores() {
  std::string out;
  for (const ml::Dataset& data :
       {GoldenTiedRegressionData(), GoldenTiedClassificationData()}) {
    ml::Evaluator evaluator(data, 0.25, 107);
    out += StrFormat("%s\n", ml::TaskTypeName(data.task));
    out += StrFormat("score {5,1,3} %a\n", evaluator.ScoreFeatures({5, 1, 3}));
    out += StrFormat("score all %a\n", evaluator.ScoreAllFeatures());
    out += StrFormat("final all %a\n",
                     evaluator.FinalScore(
                         ml::AllFeatureIndices(data.NumFeatures())));
  }
  return out;
}

/// Base table: int64 id + string city + double val key columns with nulls.
inline df::DataFrame GoldenBaseFrame() {
  df::DataFrame base;
  df::Column id = df::Column::Empty("id", df::DataType::kInt64);
  df::Column city = df::Column::Empty("city", df::DataType::kString);
  df::Column t = df::Column::Empty("t", df::DataType::kDouble);
  df::Column payload = df::Column::Empty("payload", df::DataType::kDouble);
  Rng rng(31);
  static const char* kCities[] = {"ann arbor", "boston", "cambridge",
                                  "dover"};
  for (size_t i = 0; i < 64; ++i) {
    if (i % 13 == 12) {
      id.AppendNull();
    } else {
      id.AppendInt64(static_cast<int64_t>(rng.UniformUint64(12)));
    }
    if (i % 17 == 16) {
      city.AppendNull();
    } else {
      city.AppendString(kCities[rng.UniformUint64(4)]);
    }
    t.AppendDouble(static_cast<double>(i) + 0.25);
    payload.AppendDouble(rng.Normal());
  }
  ARDA_CHECK(base.AddColumn(std::move(id)).ok());
  ARDA_CHECK(base.AddColumn(std::move(city)).ok());
  ARDA_CHECK(base.AddColumn(std::move(t)).ok());
  ARDA_CHECK(base.AddColumn(std::move(payload)).ok());
  return base;
}

/// Foreign table with duplicate keys (forces pre-aggregation), nulls,
/// a categorical value column with mode ties, and double values that
/// collide under "%.10g" rendering while differing in bits.
inline df::DataFrame GoldenForeignFrame() {
  df::DataFrame foreign;
  df::Column id = df::Column::Empty("fid", df::DataType::kInt64);
  df::Column city = df::Column::Empty("fcity", df::DataType::kString);
  df::Column t = df::Column::Empty("ft", df::DataType::kDouble);
  df::Column score = df::Column::Empty("score", df::DataType::kDouble);
  df::Column tag = df::Column::Empty("tag", df::DataType::kString);
  Rng rng(47);
  static const char* kCities[] = {"ann arbor", "boston", "cambridge",
                                  "dover"};
  static const char* kTags[] = {"alpha", "beta", "beta", "alpha", "gamma"};
  for (size_t i = 0; i < 96; ++i) {
    if (i % 19 == 18) {
      id.AppendNull();
    } else {
      id.AppendInt64(static_cast<int64_t>(rng.UniformUint64(12)));
    }
    city.AppendString(kCities[rng.UniformUint64(4)]);
    double base_t = static_cast<double>(i % 40) * 1.7;
    // Same "%.10g" string, different bits, for a fraction of rows.
    if (i % 7 == 3) base_t += 1e-12;
    t.AppendDouble(base_t);
    if (i % 11 == 10) {
      score.AppendNull();
    } else {
      score.AppendDouble(rng.Normal());
    }
    tag.AppendString(kTags[i % 5]);
  }
  ARDA_CHECK(foreign.AddColumn(std::move(id)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(city)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(t)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(score)).ok());
  ARDA_CHECK(foreign.AddColumn(std::move(tag)).ok());
  return foreign;
}

/// `partition_count` pins the radix-partitioned out-of-core path (0 =
/// single-pass); the output is bit-identical for every value by contract.
inline std::string GoldenHardJoinCsv(size_t partition_count = 0) {
  df::DataFrame base = GoldenBaseFrame();
  df::DataFrame foreign = GoldenForeignFrame();
  discovery::CandidateJoin cand;
  cand.foreign_table = "aug";
  cand.keys = {
      discovery::JoinKeyPair{"id", "fid", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"city", "fcity", discovery::KeyKind::kHard}};
  join::JoinOptions options;
  options.partition_count = partition_count;
  Rng rng(3);
  Result<df::DataFrame> joined =
      join::ExecuteLeftJoin(base, foreign, cand, options, &rng);
  ARDA_CHECK(joined.ok());
  return df::WriteCsvString(joined.value());
}

/// Soft joins never partition their probe, but `partition_count` still
/// reaches the pre-aggregation group-by; output must not change.
inline std::string GoldenSoftJoinCsv(size_t partition_count = 0) {
  df::DataFrame base = GoldenBaseFrame();
  df::DataFrame foreign = GoldenForeignFrame();
  discovery::CandidateJoin cand;
  cand.foreign_table = "aug";
  cand.keys = {
      discovery::JoinKeyPair{"city", "fcity", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"t", "ft", discovery::KeyKind::kSoft}};
  join::JoinOptions options;
  options.soft_method = join::SoftJoinMethod::kTwoWayNearest;
  options.partition_count = partition_count;
  Rng rng(5);
  Result<df::DataFrame> joined =
      join::ExecuteLeftJoin(base, foreign, cand, options, &rng);
  ARDA_CHECK(joined.ok());
  return df::WriteCsvString(joined.value());
}

inline std::string GoldenGeoJoinCsv() {
  df::DataFrame base;
  df::DataFrame foreign;
  Rng rng(59);
  {
    df::Column lat = df::Column::Empty("lat", df::DataType::kDouble);
    df::Column lon = df::Column::Empty("lon", df::DataType::kDouble);
    df::Column region = df::Column::Empty("region", df::DataType::kString);
    for (size_t i = 0; i < 48; ++i) {
      lat.AppendDouble(rng.Uniform(-10.0, 10.0));
      lon.AppendDouble(rng.Uniform(30.0, 50.0));
      region.AppendString(i % 2 == 0 ? "north" : "south");
    }
    ARDA_CHECK(base.AddColumn(std::move(lat)).ok());
    ARDA_CHECK(base.AddColumn(std::move(lon)).ok());
    ARDA_CHECK(base.AddColumn(std::move(region)).ok());
  }
  {
    df::Column lat = df::Column::Empty("glat", df::DataType::kDouble);
    df::Column lon = df::Column::Empty("glon", df::DataType::kDouble);
    df::Column region = df::Column::Empty("gregion", df::DataType::kString);
    df::Column val = df::Column::Empty("gval", df::DataType::kDouble);
    for (size_t i = 0; i < 40; ++i) {
      // Duplicated coordinates force the geo pre-aggregation path.
      double a = rng.Uniform(-10.0, 10.0);
      double b = rng.Uniform(30.0, 50.0);
      size_t copies = i % 3 == 0 ? 2 : 1;
      for (size_t c = 0; c < copies; ++c) {
        lat.AppendDouble(a);
        lon.AppendDouble(b);
        region.AppendString(i % 2 == 0 ? "north" : "south");
        val.AppendDouble(rng.Normal());
      }
    }
    ARDA_CHECK(foreign.AddColumn(std::move(lat)).ok());
    ARDA_CHECK(foreign.AddColumn(std::move(lon)).ok());
    ARDA_CHECK(foreign.AddColumn(std::move(region)).ok());
    ARDA_CHECK(foreign.AddColumn(std::move(val)).ok());
  }
  discovery::CandidateJoin cand;
  cand.foreign_table = "geo";
  cand.keys = {
      discovery::JoinKeyPair{"region", "gregion", discovery::KeyKind::kHard},
      discovery::JoinKeyPair{"lat", "glat", discovery::KeyKind::kSoft},
      discovery::JoinKeyPair{"lon", "glon", discovery::KeyKind::kSoft}};
  Rng rng2(7);
  Result<df::DataFrame> joined =
      join::ExecuteGeoLeftJoin(base, foreign, cand, {}, &rng2);
  ARDA_CHECK(joined.ok());
  return df::WriteCsvString(joined.value());
}

inline std::string GoldenAggregateCsv(size_t partition_count = 0) {
  df::DataFrame frame = GoldenForeignFrame();
  df::AggregateOptions options;
  options.numeric = df::NumericAgg::kMedian;
  options.categorical = df::CategoricalAgg::kMode;
  options.add_count = true;
  options.partition_count = partition_count;
  Result<df::DataFrame> grouped =
      df::GroupByAggregate(frame, {"fid", "fcity", "ft"}, options);
  ARDA_CHECK(grouped.ok());
  return df::WriteCsvString(grouped.value());
}

/// Three-class data with d close to n for the l2,1 solver: two
/// class-aligned features, a constant feature (an all-zero column once
/// standardized) and noise filling out 44 columns over 48 rows.
inline ml::Dataset GoldenWideClassificationData() {
  Rng rng(61);
  ml::Dataset data;
  data.task = ml::TaskType::kClassification;
  const size_t rows = 48, cols = 44;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double label = static_cast<double>(r % 3);
    data.y[r] = label;
    data.x(r, 0) = label + rng.Normal(0.0, 0.4);
    data.x(r, 1) = (label == 2.0 ? 1.0 : -1.0) + rng.Normal(0.0, 0.6);
    data.x(r, 2) = 3.5;
    for (size_t c = 3; c < cols; ++c) data.x(r, c) = rng.Normal();
  }
  return data;
}

/// L21SparseRegression feature norms and final objective, hexfloat.
inline std::string GoldenSparseRegression(const ml::Dataset& data) {
  ml::SparseRegressionConfig config;
  config.task = data.task;
  ml::L21SparseRegression model(config);
  model.Fit(data.x, data.y);
  std::string out;
  for (double v : model.FeatureNorms()) out += StrFormat("%a\n", v);
  out += StrFormat("objective %a\n", model.final_objective());
  return out;
}

/// Regression data whose row count (301) and feature count (29) leave a
/// vector tail in both solver passes, with one target of 1e155: that
/// row's squared residual overflows, so its row scale is 0 and the
/// gradient skips it. The final objective is inf; the norms stay finite.
inline ml::Dataset GoldenOverflowRegressionData() {
  Rng rng(109);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 301, cols = 29;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) data.x(r, c) = rng.Normal();
    data.y[r] = data.x(r, 0) - 0.5 * data.x(r, 3) + rng.Normal(0.0, 0.1);
  }
  data.y[150] = 1e155;
  return data;
}

/// Two-class data (two outputs, like school (S)) over 203 rows and 13
/// features: neither count is a multiple of 4.
inline ml::Dataset GoldenTwoClassData() {
  Rng rng(113);
  ml::Dataset data;
  data.task = ml::TaskType::kClassification;
  const size_t rows = 203, cols = 13;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double label = static_cast<double>(r % 2);
    data.y[r] = label;
    data.x(r, 0) = label + rng.Normal(0.0, 0.7);
    for (size_t c = 1; c < cols; ++c) data.x(r, c) = rng.Normal();
  }
  return data;
}

/// Rank-deficient feature matrix for the moment-matched noise draw:
/// d = 12 features over n = 40 rows, so the n x n covariance has rank
/// below n and factors only after the diagonal jitter retry (the golden
/// test asserts the unjittered factorization fails).
inline ml::Dataset GoldenRankDeficientData() {
  Rng rng(67);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 40, cols = 12;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      data.x(r, c) = rng.Normal(static_cast<double>(c % 4), 1.0);
    }
    data.y[r] = data.x(r, 0) + rng.Normal(0.0, 0.2);
  }
  return data;
}

/// Two consecutive MakeNoiseFeatures(kMomentMatched) draws from one
/// stream (the second pins how the first leaves the Rng), hexfloat.
inline std::string GoldenMomentMatchedNoise() {
  ml::Dataset data = GoldenRankDeficientData();
  Rng rng(71);
  std::string out;
  for (size_t draw = 0; draw < 2; ++draw) {
    la::Matrix noise = featsel::MakeNoiseFeatures(
        data, 7, featsel::NoiseKind::kMomentMatched, &rng);
    for (double v : noise.data()) out += StrFormat("%a\n", v);
    out += "end draw\n";
  }
  return out;
}

/// 37 rows over 10 features; row 5 is the constant 2.5, so its mean is
/// exact and every centered value of that row is 0 (the covariance skips
/// them).
inline ml::Dataset GoldenConstantRowData() {
  Rng rng(127);
  ml::Dataset data;
  data.task = ml::TaskType::kRegression;
  const size_t rows = 37, cols = 10;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      data.x(r, c) =
          r == 5 ? 2.5 : rng.Normal(static_cast<double>(c % 3), 1.0);
    }
    data.y[r] = data.x(r, 0) + rng.Normal(0.0, 0.2);
  }
  return data;
}

/// Two consecutive 13-sample MakeNoiseFeatures(kMomentMatched) draws from
/// the constant-row fixture, hexfloat.
inline std::string GoldenConstantRowNoise() {
  ml::Dataset data = GoldenConstantRowData();
  Rng rng(131);
  std::string out;
  for (size_t draw = 0; draw < 2; ++draw) {
    la::Matrix noise = featsel::MakeNoiseFeatures(
        data, 13, featsel::NoiseKind::kMomentMatched, &rng);
    for (double v : noise.data()) out += StrFormat("%a\n", v);
    out += "end draw\n";
  }
  return out;
}

/// RunRifs with the default configuration on a small classification
/// fixture: beat_noise_fraction (hexfloat) and the selected features.
inline std::string GoldenRifsSelection(size_t num_threads) {
  Rng data_rng(73);
  ml::Dataset data;
  data.task = ml::TaskType::kClassification;
  const size_t rows = 120, signal = 3, cols = 12;
  data.x = la::Matrix(rows, cols);
  data.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const bool positive = r % 2 == 0;
    for (size_t c = 0; c < cols; ++c) {
      data.x(r, c) = c < signal ? data_rng.Normal(positive ? 1.0 : -1.0, 1.2)
                                : data_rng.Normal();
    }
    data.y[r] = positive ? 1.0 : 0.0;
  }
  for (size_t c = 0; c < cols; ++c) {
    data.feature_names.push_back("f" + std::to_string(c));
  }
  ml::Evaluator evaluator(data, 0.25, 7);
  featsel::RifsConfig config;
  config.num_threads = num_threads;
  Rng rng(79);
  featsel::RifsResult result =
      featsel::RunRifs(data, evaluator, config, &rng);
  std::string out;
  for (double v : result.beat_noise_fraction) out += StrFormat("%a\n", v);
  out += "selected";
  for (size_t f : result.selected) out += StrFormat(" %zu", f);
  out += "\n";
  return out;
}

}  // namespace arda::golden

#endif  // ARDA_TESTS_GOLDEN_FIXTURES_H_
