#ifndef ARDA_ML_TRAINING_VIEW_H_
#define ARDA_ML_TRAINING_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.h"
#include "ml/dataset.h"
#include "simd/aligned.h"

namespace arda::ml {

/// Column-major, ranked training matrix that the trees of a forest, and
/// every forest an Evaluator fits, read instead of copying the matrix
/// (see DESIGN.md "Columnar split search").
///
/// The view stores each column once, 64-byte aligned. For every column it
/// also holds each row's dense rank of (value, target) and the rank->value
/// and rank->target tables. Ranks follow the split search's order: NaN
/// after +inf with all NaNs tied, -0.0 tied with +0.0, and ties in value
/// broken by target. Entries of one rank are interchangeable for every
/// threshold-scan sum and comparison, so sorting a node's ranks and
/// reading the tables back reproduces the scan of its sorted
/// (value, target) pairs bit for bit. This is the one place where rows
/// get ordered.
///
/// The target is y for regression and the class label lround(y), as a
/// double, for classification (labels() holds the same labels as
/// integers).
///
/// A view is a cheap, immutable handle: Select() hands out column subsets
/// that share the storage.
class TrainingView {
 public:
  /// Copies x column by column and ranks every column, one ParallelFor
  /// task per block of 16 columns on at most `num_threads` threads (0 =
  /// hardware concurrency). The ranks are the same for every thread count.
  TrainingView(const la::Matrix& x, const std::vector<double>& y,
               TaskType task, size_t num_threads);

  /// The view of columns `features` of this view, in that order, sharing
  /// its storage.
  TrainingView Select(const std::vector<size_t>& features) const;

  size_t rows() const { return storage_->rows; }
  size_t cols() const { return columns_.size(); }
  TaskType task() const { return storage_->task; }

  /// Per row: y for regression, the class label as a double for
  /// classification.
  const double* targets() const { return storage_->targets.data(); }
  /// Per row class label, classification only.
  const uint32_t* labels() const { return storage_->labels.data(); }
  /// max label + 1 for classification (at least 1), 0 for regression.
  size_t num_classes() const { return storage_->num_classes; }

  /// Column f's values, one per row.
  const double* column(size_t f) const {
    return storage_->values.data() + columns_[f] * storage_->rows;
  }
  /// Column f's rank of each row, below num_ranks(f).
  const uint32_t* ranks(size_t f) const {
    return storage_->ranked[columns_[f]].ranks.data();
  }
  /// Number of distinct (value, target) classes in column f.
  size_t num_ranks(size_t f) const {
    return storage_->ranked[columns_[f]].rank_values.size();
  }
  /// A value of each rank of column f.
  const double* rank_values(size_t f) const {
    return storage_->ranked[columns_[f]].rank_values.data();
  }
  /// A target of each rank of column f.
  const double* rank_targets(size_t f) const {
    return storage_->ranked[columns_[f]].rank_targets.data();
  }

 private:
  struct RankedColumn {
    std::vector<uint32_t> ranks;
    simd::AlignedVector<double> rank_values;
    simd::AlignedVector<double> rank_targets;
  };
  struct Storage {
    size_t rows = 0;
    TaskType task = TaskType::kRegression;
    size_t num_classes = 0;
    simd::AlignedVector<double> values;  // column-major, rows per column
    std::vector<double> targets;
    std::vector<uint32_t> labels;
    std::vector<RankedColumn> ranked;
  };

  TrainingView() = default;

  std::shared_ptr<Storage> storage_;
  std::vector<size_t> columns_;  // storage column of each view column
};

}  // namespace arda::ml

#endif  // ARDA_ML_TRAINING_VIEW_H_
