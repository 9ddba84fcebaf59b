#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/linalg.h"
#include "la/matrix.h"
#include "util/rng.h"

namespace arda::la {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromData) {
  Matrix m(2, 2, std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
}

TEST(MatrixTest, RowAndColCopies) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, SetRowAndSetCol) {
  Matrix m(2, 2);
  m.SetRow(0, {1, 2});
  m.SetCol(1, {9, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(0, 1), 9);
  EXPECT_DOUBLE_EQ(m(1, 1), 8);
}

TEST(MatrixTest, Transpose) {
  Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
}

TEST(MatrixTest, Multiply) {
  Matrix a(2, 2, std::vector<double>{1, 2, 3, 4});
  Matrix b(2, 2, std::vector<double>{5, 6, 7, 8});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MultiplyVec) {
  Matrix a(2, 3, std::vector<double>{1, 0, 2, 0, 1, -1});
  std::vector<double> out = a.MultiplyVec({1, 2, 3});
  EXPECT_DOUBLE_EQ(out[0], 7);
  EXPECT_DOUBLE_EQ(out[1], -1);
}

TEST(MatrixTest, TransposeMultiplyVec) {
  Matrix a(2, 2, std::vector<double>{1, 2, 3, 4});
  std::vector<double> out = a.TransposeMultiplyVec({1, 1});
  EXPECT_DOUBLE_EQ(out[0], 4);
  EXPECT_DOUBLE_EQ(out[1], 6);
}

TEST(MatrixTest, SelectColsAndRows) {
  Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Matrix cols = a.SelectCols({2, 0});
  EXPECT_DOUBLE_EQ(cols(0, 0), 3);
  EXPECT_DOUBLE_EQ(cols(1, 1), 4);
  Matrix rows = a.SelectRows({1, 1});
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_DOUBLE_EQ(rows(0, 0), 4);
  EXPECT_DOUBLE_EQ(rows(1, 2), 6);
}

TEST(MatrixTest, HStack) {
  Matrix a(2, 1, std::vector<double>{1, 2});
  Matrix b(2, 2, std::vector<double>{3, 4, 5, 6});
  Matrix c = a.HStack(b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c(1, 2), 6);
}

TEST(MatrixTest, HStackWithEmpty) {
  Matrix a;
  Matrix b(2, 2, std::vector<double>{3, 4, 5, 6});
  EXPECT_EQ(a.HStack(b).cols(), 2u);
  EXPECT_EQ(b.HStack(a).cols(), 2u);
}

TEST(MatrixTest, Identity) {
  Matrix i = Identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 2), 0.0);
}

TEST(VectorOpsTest, DotNormAxpy) {
  std::vector<double> a = {1, 2, 2};
  std::vector<double> b = {2, 0, 1};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 3.0);
  Axpy(2.0, b, &a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
}

TEST(VectorOpsTest, MeanVariance) {
  std::vector<double> a = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(Variance(a), 1.25);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(VectorOpsTest, PearsonPerfectCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {-1, -2, -3, -4};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(VectorOpsTest, PearsonConstantInputIsZero) {
  std::vector<double> a = {1, 1, 1};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  Matrix a(2, 2, std::vector<double>{4, 2, 2, 3});
  Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(l->At(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l->At(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l->At(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2, std::vector<double>{1, 2, 2, 1});
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(SolveSpdTest, SolvesSystem) {
  Matrix a(2, 2, std::vector<double>{4, 2, 2, 3});
  Result<std::vector<double>> x = SolveSpd(a, {10, 8});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  EXPECT_NEAR(4 * (*x)[0] + 2 * (*x)[1], 10.0, 1e-9);
  EXPECT_NEAR(2 * (*x)[0] + 3 * (*x)[1], 8.0, 1e-9);
}

TEST(RidgeSolveTest, RecoversLinearModel) {
  Rng rng(5);
  const size_t n = 200, d = 4;
  Matrix x(n, d);
  std::vector<double> truth = {2.0, -1.0, 0.5, 3.0};
  std::vector<double> y(n);
  for (size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < d; ++c) {
      x(r, c) = rng.Normal();
      acc += truth[c] * x(r, c);
    }
    y[r] = acc;
  }
  Result<std::vector<double>> w = RidgeSolve(x, y, 1e-6);
  ASSERT_TRUE(w.ok());
  for (size_t c = 0; c < d; ++c) EXPECT_NEAR((*w)[c], truth[c], 1e-3);
}

TEST(RidgeSolveTest, NonFiniteGramReturnsStatusNotNaNWeights) {
  // A NaN feature poisons the Gram matrix; no amount of diagonal jitter
  // fixes it, so the solver must fail with a Status instead of silently
  // returning NaN weights.
  Matrix x(3, 2);
  x(0, 0) = 1.0;
  x(0, 1) = std::numeric_limits<double>::quiet_NaN();
  x(1, 0) = 2.0;
  x(1, 1) = 1.0;
  x(2, 0) = 3.0;
  x(2, 1) = -1.0;
  std::vector<double> y = {1.0, 2.0, 3.0};
  Result<std::vector<double>> w = RidgeSolve(x, y, 1e-3);
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("singular"), std::string::npos);
}

TEST(StandardizeTest, ZeroMeanUnitVariance) {
  Rng rng(6);
  Matrix x(300, 2);
  for (size_t r = 0; r < 300; ++r) {
    x(r, 0) = rng.Normal(5.0, 3.0);
    x(r, 1) = 7.0;  // constant column
  }
  ColumnStats stats = ComputeColumnStats(x);
  Matrix z = Standardize(x, stats);
  EXPECT_NEAR(Mean(z.Col(0)), 0.0, 1e-9);
  EXPECT_NEAR(Variance(z.Col(0)), 1.0, 1e-6);
  EXPECT_NEAR(z(0, 1), 0.0, 1e-12);  // constant column maps to zero
}

TEST(FeatureMomentsTest, MeanOverColumns) {
  Matrix x(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  FeatureMoments m = ComputeFeatureMoments(x);
  ASSERT_EQ(m.mean.size(), 2u);
  EXPECT_DOUBLE_EQ(m.mean[0], 2.0);
  EXPECT_DOUBLE_EQ(m.mean[1], 5.0);
  EXPECT_EQ(m.covariance.rows(), 2u);
  // Both rows are [1,2,3] shifted; columns vary together -> positive
  // covariance everywhere.
  EXPECT_GT(m.covariance(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.covariance(0, 1), m.covariance(1, 0));
}

TEST(SampleMultivariateNormalTest, MatchesMoments) {
  // Target: mean (1, -1), covariance [[2, 0.8], [0.8, 1]].
  FeatureMoments moments;
  moments.mean = {1.0, -1.0};
  moments.covariance = Matrix(2, 2, std::vector<double>{2.0, 0.8, 0.8, 1.0});
  FactorCovariance(&moments);
  Rng rng(8);
  Matrix samples = SampleMultivariateNormal(moments, 20000, &rng);
  ASSERT_EQ(samples.rows(), 2u);
  double m0 = Mean(samples.Row(0));
  double m1 = Mean(samples.Row(1));
  EXPECT_NEAR(m0, 1.0, 0.05);
  EXPECT_NEAR(m1, -1.0, 0.05);
  // Empirical covariance.
  double cov = 0.0;
  for (size_t s = 0; s < samples.cols(); ++s) {
    cov += (samples(0, s) - m0) * (samples(1, s) - m1);
  }
  cov /= static_cast<double>(samples.cols());
  EXPECT_NEAR(cov, 0.8, 0.08);
}

TEST(FeatureMomentsTest, CovarianceSumsInFeatureOrder) {
  // Each covariance entry is sum_c (x_ic - mu_i)(x_jc - mu_j) / d with
  // the terms added in feature order; pinned exactly, not approximately.
  Rng rng(21);
  Matrix x(7, 5);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.Normal(1.0, 3.0);
  }
  for (size_t c = 0; c < x.cols(); ++c) x(2, c) = 4.0;  // centered to 0
  FeatureMoments m = ComputeFeatureMoments(x);
  const double inv_d = 1.0 / static_cast<double>(x.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.rows(); ++j) {
      const size_t lo = std::min(i, j), hi = std::max(i, j);
      double sum = 0.0;
      for (size_t c = 0; c < x.cols(); ++c) {
        sum += (x(lo, c) - m.mean[lo]) * (x(hi, c) - m.mean[hi]);
      }
      EXPECT_EQ(m.covariance(i, j), sum * inv_d) << i << "," << j;
    }
  }
}

TEST(FeatureMomentsTest, RankDeficientCovarianceFactorsAfterJitter) {
  // 6 rows, 3 features: the 6 x 6 covariance has rank <= 2.
  Rng rng(22);
  Matrix x(6, 3);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.Normal();
  }
  FeatureMoments m = ComputeFeatureMoments(x);
  EXPECT_FALSE(Cholesky(m.covariance).ok());
  ASSERT_EQ(m.factor.rows(), 6u);
  ASSERT_EQ(m.factor.cols(), 6u);
  // L L^T reproduces the covariance up to the (tiny) diagonal jitter.
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      double llt = 0.0;
      for (size_t k = 0; k < 6; ++k) llt += m.factor(i, k) * m.factor(j, k);
      EXPECT_NEAR(llt, m.covariance(i, j), 1e-5);
    }
  }
}

TEST(FeatureMomentsTest, IndefiniteCovarianceLeavesFactorEmpty) {
  FeatureMoments moments;
  moments.mean = {0.0, 0.0};
  moments.covariance = Matrix(2, 2, std::vector<double>{1.0, 0.0, 0.0, -1.0});
  FactorCovariance(&moments);
  EXPECT_TRUE(moments.factor.empty());
  // Sampling falls back to independent per-coordinate normals.
  Rng rng(23);
  Matrix samples = SampleMultivariateNormal(moments, 50, &rng);
  EXPECT_EQ(samples.rows(), 2u);
  EXPECT_EQ(samples.cols(), 50u);
}

TEST(SampleMultivariateNormalTest, SingularCovarianceFallsBack) {
  FeatureMoments moments;
  moments.mean = {0.0, 0.0};
  moments.covariance = Matrix(2, 2);  // all zeros: singular
  Rng rng(9);
  Matrix samples = SampleMultivariateNormal(moments, 100, &rng);
  EXPECT_EQ(samples.cols(), 100u);
}

}  // namespace
}  // namespace arda::la
