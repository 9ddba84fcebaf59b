#include "la/linalg.h"

#include <algorithm>
#include <cmath>

#include "simd/simd.h"
#include "util/fault.h"

namespace arda::la {

Result<Matrix> Cholesky(const Matrix& a) {
  ARDA_FAULT_POINT(fault::kCholesky);
  ARDA_CHECK_EQ(a.rows(), a.cols());
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::FailedPrecondition(
              "matrix is not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b) {
  const size_t n = l.rows();
  ARDA_CHECK_EQ(b.size(), n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  return y;
}

std::vector<double> BackwardSubstitute(const Matrix& l,
                                       const std::vector<double>& y) {
  const size_t n = l.rows();
  ARDA_CHECK_EQ(y.size(), n);
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b) {
  ARDA_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  std::vector<double> y = ForwardSubstitute(l, b);
  return BackwardSubstitute(l, y);
}

Result<std::vector<double>> RidgeSolve(const Matrix& x,
                                       const std::vector<double>& y,
                                       double lambda) {
  ARDA_CHECK_EQ(x.rows(), y.size());
  ARDA_CHECK_GT(lambda, 0.0);
  const size_t d = x.cols();
  // Gram matrix X^T X + lambda I.
  Matrix gram(d, d);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    for (size_t i = 0; i < d; ++i) {
      const double xi = row[i];
      if (xi == 0.0) continue;
      double* grow = gram.RowPtr(i);
      for (size_t j = i; j < d; ++j) grow[j] += xi * row[j];
    }
  }
  for (size_t i = 0; i < d; ++i) {
    gram(i, i) += lambda;
    for (size_t j = 0; j < i; ++j) gram(i, j) = gram(j, i);
  }
  std::vector<double> rhs = x.TransposeMultiplyVec(y);
  Result<std::vector<double>> solved = SolveSpd(gram, rhs);
  if (solved.ok()) return solved;
  // Extremely ill-conditioned inputs: retry with a heavier diagonal.
  for (size_t i = 0; i < d; ++i) gram(i, i) += 1e-3 + lambda * 10.0;
  Result<std::vector<double>> retried = SolveSpd(gram, rhs);
  if (retried.ok()) return retried;
  return Status::FailedPrecondition(
      "ridge system is singular even after jittered regularization: " +
      retried.status().message());
}

ColumnStats ComputeColumnStats(const Matrix& x) {
  ColumnStats stats;
  const size_t n = x.rows();
  const size_t d = x.cols();
  stats.mean.assign(d, 0.0);
  stats.stddev.assign(d, 1.0);
  if (n == 0) return stats;
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) stats.mean[c] += row[c];
  }
  for (size_t c = 0; c < d; ++c) stats.mean[c] /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = x.RowPtr(r);
    for (size_t c = 0; c < d; ++c) {
      const double delta = row[c] - stats.mean[c];
      var[c] += delta * delta;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    double sd = std::sqrt(var[c] / static_cast<double>(n));
    stats.stddev[c] = sd < 1e-12 ? 1.0 : sd;
  }
  return stats;
}

Matrix Standardize(const Matrix& x, const ColumnStats& stats) {
  ARDA_CHECK_EQ(stats.mean.size(), x.cols());
  Matrix out(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    double* orow = out.RowPtr(r);
    for (size_t c = 0; c < x.cols(); ++c) {
      orow[c] = (row[c] - stats.mean[c]) / stats.stddev[c];
    }
  }
  return out;
}

FeatureMoments ComputeFeatureMoments(const Matrix& x) {
  // Columns of x are the observations (each feature vector lives in R^n).
  const size_t n = x.rows();
  const size_t d = x.cols();
  FeatureMoments moments;
  moments.mean.assign(n, 0.0);
  moments.covariance = Matrix(n, n);
  if (d > 0) {
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.RowPtr(r);
      double sum = 0.0;
      for (size_t c = 0; c < d; ++c) sum += row[c];
      moments.mean[r] = sum / static_cast<double>(d);
    }
    // Centered observations, one contiguous row per feature, so row i of
    // the upper triangle of sum_c (x_c - mu)(x_c - mu)^T is one
    // simd::MultiplyAddRows into crow[i..n): the features c with a
    // nonzero di = (x_c - mu)_i, in feature order, with coefficients di.
    // Each entry sums its terms in feature order.
    Matrix centered(d, n);
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.RowPtr(r);
      for (size_t c = 0; c < d; ++c) centered(c, r) = row[c] - moments.mean[r];
    }
    std::vector<const double*> obs_rows(d);
    std::vector<double> obs_coef(d);
    for (size_t i = 0; i < n; ++i) {
      size_t k = 0;
      for (size_t c = 0; c < d; ++c) {
        const double* obs = centered.RowPtr(c);
        if (obs[i] == 0.0) continue;
        obs_rows[k] = obs + i;
        obs_coef[k++] = obs[i];
      }
      simd::MultiplyAddRows(obs_rows.data(), obs_coef.data(), k,
                            moments.covariance.RowPtr(i) + i, n - i);
    }
    const double inv_d = 1.0 / static_cast<double>(d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        moments.covariance(i, j) *= inv_d;
        moments.covariance(j, i) = moments.covariance(i, j);
      }
    }
  }
  FactorCovariance(&moments);
  return moments;
}

void FactorCovariance(FeatureMoments* moments) {
  Matrix sigma = moments->covariance;
  double jitter = 1e-8;
  Result<Matrix> chol = Cholesky(sigma);
  for (int attempt = 0; attempt < 6 && !chol.ok(); ++attempt) {
    for (size_t i = 0; i < sigma.rows(); ++i) sigma(i, i) += jitter;
    jitter *= 10.0;
    chol = Cholesky(sigma);
  }
  moments->factor = chol.ok() ? std::move(chol).value() : Matrix();
}

Matrix SampleMultivariateNormal(const FeatureMoments& moments, size_t count,
                                Rng* rng) {
  const size_t n = moments.mean.size();
  Matrix samples(n, count);  // each *column* is one sampled feature vector
  if (moments.factor.empty()) {
    // Independent normals matching each coordinate's variance.
    for (size_t s = 0; s < count; ++s) {
      for (size_t i = 0; i < n; ++i) {
        const double var = moments.covariance(i, i);
        const double sd = var > 0.0 ? std::sqrt(var) : 1.0;
        samples(i, s) = rng->Normal(moments.mean[i], sd);
      }
    }
    return samples;
  }
  ARDA_CHECK_EQ(moments.factor.rows(), n);
  // z(i, s) is coordinate i of sample s, drawn sample by sample. Row i of
  // the result is then mu_i + sum_{k <= i} L(i, k) z(k, .): one
  // simd::MultiplyAddRows over rows 0..i of z, with lanes across the
  // samples, each sum in increasing k.
  Matrix z(n, count);
  for (size_t s = 0; s < count; ++s) {
    for (size_t i = 0; i < n; ++i) z(i, s) = rng->Normal();
  }
  std::vector<const double*> z_rows(n);
  for (size_t k = 0; k < n; ++k) z_rows[k] = z.RowPtr(k);
  for (size_t i = 0; i < n; ++i) {
    double* out = samples.RowPtr(i);
    std::fill(out, out + count, moments.mean[i]);
    simd::MultiplyAddRows(z_rows.data(), moments.factor.RowPtr(i), i + 1,
                          out, count);
  }
  return samples;
}

}  // namespace arda::la
