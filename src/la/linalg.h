#ifndef ARDA_LA_LINALG_H_
#define ARDA_LA_LINALG_H_

#include <vector>

#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace arda::la {

/// Computes the lower-triangular Cholesky factor L of a symmetric
/// positive-definite matrix A (A = L L^T). Fails if A is not SPD within
/// numerical tolerance.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for SPD A via Cholesky factorization.
Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b);

/// Solves L y = b (forward substitution) for lower-triangular L.
std::vector<double> ForwardSubstitute(const Matrix& l,
                                      const std::vector<double>& b);

/// Solves L^T x = y (backward substitution) for lower-triangular L.
std::vector<double> BackwardSubstitute(const Matrix& l,
                                       const std::vector<double>& y);

/// Solves the ridge-regularized least squares problem
///   min_w ||X w - y||^2 + lambda ||w||^2
/// via the normal equations (X^T X + lambda I) w = X^T y. A singular or
/// non-finite Gram matrix (rank-deficient X, NaN/inf features) is retried
/// once with a heavier diagonal; if that still fails the Status propagates
/// instead of returning NaN-poisoned weights.
Result<std::vector<double>> RidgeSolve(const Matrix& x,
                                       const std::vector<double>& y,
                                       double lambda);

/// Per-column mean/stddev statistics used to z-score a feature matrix.
struct ColumnStats {
  std::vector<double> mean;
  std::vector<double> stddev;  // entries are >= epsilon (never zero)
};

/// Computes per-column mean and stddev of `x`; stddev entries below 1e-12
/// are clamped to 1 so constant columns map to zero after standardization.
ColumnStats ComputeColumnStats(const Matrix& x);

/// Returns a copy of `x` with each column z-scored using `stats`.
Matrix Standardize(const Matrix& x, const ColumnStats& stats);

/// The multivariate normal N(mu, Sigma) RIFS draws moment-matched noise
/// from (Algorithm 2 of the paper). The *columns* of `x` are the
/// observations of row-dimension vectors: mu = mean over columns, Sigma =
/// 1/d sum_i (x_i - mu)(x_i - mu)^T where x_i is the i-th column.
struct FeatureMoments {
  std::vector<double> mean;  // length = rows of x
  Matrix covariance;         // rows x rows
  /// Lower-triangular Cholesky factor of `covariance` with the smallest
  /// diagonal jitter added that lets it factor (see FactorCovariance);
  /// empty when even the largest jitter failed, and sampling then draws
  /// independent per-coordinate normals instead.
  Matrix factor;
};

/// Fits Algorithm 2 to `x`: the empirical feature moments plus the
/// covariance factor (FactorCovariance). This is the whole per-call cost
/// of moment-matched noise; SampleMultivariateNormal only draws.
FeatureMoments ComputeFeatureMoments(const Matrix& x);

/// Sets `moments->factor` from `moments->covariance`. A covariance of
/// rank below its size (fewer features than rows) rarely factors as is,
/// so the diagonal is jittered by 1e-8, then 1e-7 more, and so on for up
/// to six retries. The only place the covariance is factored.
void FactorCovariance(FeatureMoments* moments);

/// Samples `count` vectors from N(mu, Sigma) as mu + factor * z with z
/// standard normal; each sample is one column of the result and has
/// mu.size() entries. With an empty factor every coordinate is drawn
/// independently with its own variance. Consumes `rng` sample by sample,
/// coordinate by coordinate.
Matrix SampleMultivariateNormal(const FeatureMoments& moments, size_t count,
                                Rng* rng);

}  // namespace arda::la

#endif  // ARDA_LA_LINALG_H_
