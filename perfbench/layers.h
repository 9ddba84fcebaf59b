#ifndef ARDA_PERFBENCH_LAYERS_H_
#define ARDA_PERFBENCH_LAYERS_H_

// The benchmark's own per-layer spans. In the traced binary every wrapped
// layer entry point (layer_wraps.cc) opens a LayerSpan; the untraced
// binary links no wrappers, so every count stays zero there. Spans also
// land in the Perfetto trace (category "perfbench") while util/trace.h
// recording is armed.

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>

#include "util/trace.h"

namespace arda::perfbench {

// featsel.* and ml.* come first: layers.cc tells them apart by order.
enum class Layer : int {
  kNoise,       // featsel.noise: moment-matched noise draw
  kRankForest,   // featsel.rank_forest: RandomForestRanker::RankSeeded
  kRankSparse,   // featsel.rank_sparse: the l2,1 fit of the sparse ranker
  kSelect,       // featsel.select: RunRifs / ExponentialSearchSelect
  kScore,        // ml.score: Evaluator::ScoreFeatures / ScoreAllFeatures
  kFinalScore,   // ml.final_score: Evaluator::FinalScore
  kJoinExecute,  // join.execute: join::ExecuteLeftJoin
  kImpute,       // join.impute: join::ImputeInPlace
  kEncode,       // dataframe.encode: df::EncodeFeatures
  kDiscover,     // discovery.discover: discovery::DiscoverCandidates
  kCoreset,      // coreset.sample: coreset::SampleCoreset
  kLoad,         // dataframe.load: DataRepository::LoadDirectory
  kRun,          // core.run: core::Arda::Run
  kCount,
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Metric-name stem of a layer ("featsel.noise", ...).
const char* LayerName(Layer layer);

/// Spans record only while armed (one relaxed atomic load otherwise).
void ArmLayers(bool armed);
bool LayersArmed();

struct LayerTotals {
  uint64_t calls = 0;
  double seconds = 0.0;   // summed over calls on every thread
  uint64_t items = 0;     // layer-specific: candidates found
  uint64_t failures = 0;  // layer-specific: joins that returned an error
};

struct LayerSnapshot {
  std::array<LayerTotals, kNumLayers> layers{};
  /// Wall seconds inside core.run spans.
  double run_seconds = 0.0;
  /// Of run_seconds, the part covered by outermost layer spans on the
  /// thread that runs Arda::Run (a span nested in another layer span on
  /// the same thread is not counted twice).
  double covered_seconds = 0.0;
  /// Of covered_seconds, the part in featsel.* and ml.* spans.
  double featsel_ml_seconds = 0.0;

  const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<size_t>(layer)];
  }
  /// Totals accumulated since `earlier`.
  LayerSnapshot Since(const LayerSnapshot& earlier) const;
};

LayerSnapshot SnapshotLayers();

class LayerSpan {
 public:
  explicit LayerSpan(Layer layer);
  ~LayerSpan();

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  void AddItems(uint64_t count);
  void MarkFailed();

 private:
  Layer layer_;
  bool armed_ = false;
  bool outer_run_state_ = false;
  int outer_depth_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::optional<trace::TraceSpan> trace_span_;
};

}  // namespace arda::perfbench

#endif  // ARDA_PERFBENCH_LAYERS_H_
