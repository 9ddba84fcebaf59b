#include "ml/sparse_regression.h"

#include <algorithm>
#include <cmath>

#include "simd/simd.h"
#include "util/check.h"

namespace arda::ml {

L21SparseRegression::L21SparseRegression(const SparseRegressionConfig& config)
    : config_(config) {
  ARDA_CHECK_GE(config.gamma, 0.0);
}

namespace {

// One evaluation of the smoothed objective
//   sum_i sqrt(||r_i||^2 + eps) + gamma sum_f sqrt(||w_f||^2 + eps)
// at some W, with what the gradient at that W reuses.
struct Evaluation {
  la::Matrix residual;              // c x n: row j is output j's X W - Y
  std::vector<double> row_scale;    // 1 / sqrt(||r_i||^2 + eps)
  std::vector<double> weight_norm;  // sqrt(||w_f||^2 + eps)
  double objective = 0.0;
};

}  // namespace

// Layout: W, its gradient and the residual are stored transposed (one row
// per output), so X W and X^T diag(s) R are each one simd::MultiplyAddRows
// per output, with lanes across rows or features. Summation order is fixed
// per accumulator, whatever the blocking: features in order for X W, rows
// in order for X^T diag(s) R, outputs in order for the norms, rows then
// features for the objective. golden_kernels_test pins the resulting bits.
void L21SparseRegression::Fit(const la::Matrix& x,
                              const std::vector<double>& y) {
  ARDA_CHECK_EQ(x.rows(), y.size());
  const size_t n = x.rows();
  const size_t d = x.cols();
  stats_ = la::ComputeColumnStats(x);
  const la::Matrix xs = la::Standardize(x, stats_);  // rows, for X^T R
  const la::Matrix xt = xs.Transposed();  // one row per feature, for X W

  // Build the centered target matrix Y^T (c x n) and per-output offsets.
  size_t c;
  la::Matrix targets;
  if (config_.task == TaskType::kClassification) {
    double max_label = 0.0;
    for (double v : y) max_label = std::max(max_label, v);
    num_classes_ = static_cast<size_t>(std::lround(max_label)) + 1;
    c = num_classes_;
    targets = la::Matrix(c, n);
    for (size_t i = 0; i < n; ++i) {
      targets(static_cast<size_t>(std::lround(y[i])), i) = 1.0;
    }
  } else {
    num_classes_ = 0;
    c = 1;
    targets = la::Matrix(1, n, y);
  }
  output_offsets_.assign(c, 0.0);
  for (size_t j = 0; j < c; ++j) {
    double* t = targets.RowPtr(j);
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += t[i];
    mean /= static_cast<double>(n);
    output_offsets_[j] = mean;
    for (size_t i = 0; i < n; ++i) t[i] -= mean;
  }

  const double eps = config_.epsilon;
  const double gamma = config_.gamma;
  std::vector<const double*> feature_rows(d);
  for (size_t fi = 0; fi < d; ++fi) feature_rows[fi] = xt.RowPtr(fi);
  auto evaluate = [&](const la::Matrix& wt, Evaluation* e) {
    // Residual X W - Y: output j adds x_f * w_jf over the features.
    e->residual = la::Matrix(c, n);
    for (size_t j = 0; j < c; ++j) {
      simd::MultiplyAddRows(feature_rows.data(), wt.RowPtr(j), d,
                            e->residual.RowPtr(j), n);
    }
    std::vector<double>& norm = e->row_scale;
    norm.assign(n, eps);
    for (size_t j = 0; j < c; ++j) {
      double* r = e->residual.RowPtr(j);
      const double* t = targets.RowPtr(j);
      for (size_t i = 0; i < n; ++i) {
        r[i] -= t[i];
        norm[i] += r[i] * r[i];
      }
    }
    for (size_t i = 0; i < n; ++i) norm[i] = std::sqrt(norm[i]);
    double objective = 0.0;
    for (size_t i = 0; i < n; ++i) objective += norm[i];
    for (size_t i = 0; i < n; ++i) norm[i] = 1.0 / norm[i];
    e->weight_norm.assign(d, eps);
    for (size_t j = 0; j < c; ++j) {
      const double* w = wt.RowPtr(j);
      for (size_t fi = 0; fi < d; ++fi) e->weight_norm[fi] += w[fi] * w[fi];
    }
    for (size_t fi = 0; fi < d; ++fi) {
      e->weight_norm[fi] = std::sqrt(e->weight_norm[fi]);
    }
    for (size_t fi = 0; fi < d; ++fi) objective += gamma * e->weight_norm[fi];
    e->objective = objective;
  };

  // grad = X^T diag(row_scale) R + gamma * W / ||w_f||, from the
  // evaluation at `wt`. Row terms are (x_if * s_i) * r_ij, added in row
  // order: up to kBlock rows at a time are scaled into `scaled`, and each
  // output adds that block with coefficients r_ij. A row whose residual
  // norm is infinite (s_i == 0) stays out of every block: 0 * inf is NaN.
  // Eight scaled rows of a few hundred features stay in L1; 16 measured
  // slower.
  constexpr size_t kBlock = 8;
  la::Matrix scaled(kBlock, d);
  const double* scaled_rows[kBlock];
  for (size_t q = 0; q < kBlock; ++q) scaled_rows[q] = scaled.RowPtr(q);
  auto gradient = [&](const la::Matrix& wt, const Evaluation& e,
                      la::Matrix* grad) {
    *grad = la::Matrix(c, d);
    size_t block_rows[kBlock];
    double coef[kBlock];
    for (size_t i = 0; i < n;) {
      size_t k = 0;
      for (; i < n && k < kBlock; ++i) {
        const double s = e.row_scale[i];
        if (s == 0.0) continue;
        const double* xrow = xs.RowPtr(i);
        double* out = scaled.RowPtr(k);
        for (size_t fi = 0; fi < d; ++fi) out[fi] = xrow[fi] * s;
        block_rows[k++] = i;
      }
      for (size_t j = 0; j < c; ++j) {
        const double* r = e.residual.RowPtr(j);
        for (size_t q = 0; q < k; ++q) coef[q] = r[block_rows[q]];
        simd::MultiplyAddRows(scaled_rows, coef, k, grad->RowPtr(j), d);
      }
    }
    for (size_t j = 0; j < c; ++j) {
      const double* w = wt.RowPtr(j);
      double* g = grad->RowPtr(j);
      for (size_t fi = 0; fi < d; ++fi) {
        g[fi] += (gamma / e.weight_norm[fi]) * w[fi];
      }
    }
  };

  // Smoothed gradient descent with a backtracking line search: halve the
  // step until the objective does not increase, grow it by 1.25 after
  // each accepted step. The accepted trial's evaluation is the next
  // iterate's, so each iteration costs one gradient plus its trials.
  la::Matrix wt(c, d);
  la::Matrix grad;
  la::Matrix candidate(c, d);
  Evaluation current;
  Evaluation trial;
  double lr = config_.learning_rate;
  evaluate(wt, &current);
  gradient(wt, current, &grad);
  for (size_t iter = 0; iter < config_.max_iters; ++iter) {
    bool accepted = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
      for (size_t j = 0; j < c; ++j) {
        const double* w = wt.RowPtr(j);
        const double* g = grad.RowPtr(j);
        double* cand = candidate.RowPtr(j);
        for (size_t fi = 0; fi < d; ++fi) cand[fi] = w[fi] - lr * g[fi];
      }
      evaluate(candidate, &trial);
      if (trial.objective <= current.objective) {
        const bool converged =
            current.objective - trial.objective <
            config_.tolerance * std::max(1.0, current.objective);
        std::swap(wt, candidate);
        std::swap(current, trial);
        lr = std::min(lr * 1.25, 1e3);
        accepted = true;
        if (converged) iter = config_.max_iters;  // stop outer loop
        break;
      }
      lr *= 0.5;
      if (lr < 1e-12) break;
    }
    if (!accepted) break;
    if (iter + 1 < config_.max_iters) gradient(wt, current, &grad);
  }
  final_objective_ = current.objective;
  w_ = wt.Transposed();
}

std::vector<double> L21SparseRegression::Predict(const la::Matrix& x) const {
  ARDA_CHECK_EQ(x.cols(), w_.rows());
  la::Matrix xs = la::Standardize(x, stats_);
  la::Matrix scores = xs.Multiply(w_);
  const size_t n = xs.rows();
  std::vector<double> out(n);
  if (config_.task == TaskType::kRegression) {
    for (size_t i = 0; i < n; ++i) out[i] = scores(i, 0) + output_offsets_[0];
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    double best_score = -1e300;
    for (size_t j = 0; j < num_classes_; ++j) {
      double s = scores(i, j) + output_offsets_[j];
      if (s > best_score) {
        best_score = s;
        best = j;
      }
    }
    out[i] = static_cast<double>(best);
  }
  return out;
}

std::vector<double> L21SparseRegression::FeatureNorms() const {
  std::vector<double> norms(w_.rows(), 0.0);
  for (size_t fi = 0; fi < w_.rows(); ++fi) {
    double sum = 0.0;
    const double* row = w_.RowPtr(fi);
    for (size_t j = 0; j < w_.cols(); ++j) sum += row[j] * row[j];
    norms[fi] = std::sqrt(sum);
  }
  return norms;
}

}  // namespace arda::ml
