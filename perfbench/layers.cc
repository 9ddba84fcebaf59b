#include "layers.h"

#include <atomic>

namespace arda::perfbench {

namespace {

struct AtomicTotals {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> nanos{0};
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> failures{0};
};

std::atomic<bool> g_armed{false};
std::array<AtomicTotals, kNumLayers> g_totals;
std::atomic<uint64_t> g_run_nanos{0};
std::atomic<uint64_t> g_covered_nanos{0};
std::atomic<uint64_t> g_featsel_ml_nanos{0};

// Per-thread nesting state: whether this thread is inside Arda::Run and
// how many layer spans are open on it.
thread_local bool t_in_run = false;
thread_local int t_depth = 0;

constexpr const char* kNames[kNumLayers] = {
    "featsel.noise",   "featsel.rank_forest", "featsel.rank_sparse",
    "featsel.select",  "ml.score",            "ml.final_score",
    "join.execute",    "join.impute",         "dataframe.encode",
    "discovery.discover", "coreset.sample",   "dataframe.load",
    "core.run",
};

bool IsFeatselOrMl(Layer layer) {
  return layer <= Layer::kFinalScore;
}

AtomicTotals& TotalsOf(Layer layer) {
  return g_totals[static_cast<size_t>(layer)];
}

}  // namespace

const char* LayerName(Layer layer) {
  return kNames[static_cast<size_t>(layer)];
}

void ArmLayers(bool armed) {
  g_armed.store(armed, std::memory_order_relaxed);
}

bool LayersArmed() { return g_armed.load(std::memory_order_relaxed); }

LayerSnapshot LayerSnapshot::Since(const LayerSnapshot& earlier) const {
  LayerSnapshot out;
  for (size_t i = 0; i < kNumLayers; ++i) {
    out.layers[i].calls = layers[i].calls - earlier.layers[i].calls;
    out.layers[i].seconds = layers[i].seconds - earlier.layers[i].seconds;
    out.layers[i].items = layers[i].items - earlier.layers[i].items;
    out.layers[i].failures =
        layers[i].failures - earlier.layers[i].failures;
  }
  out.run_seconds = run_seconds - earlier.run_seconds;
  out.covered_seconds = covered_seconds - earlier.covered_seconds;
  out.featsel_ml_seconds = featsel_ml_seconds - earlier.featsel_ml_seconds;
  return out;
}

LayerSnapshot SnapshotLayers() {
  LayerSnapshot out;
  for (size_t i = 0; i < kNumLayers; ++i) {
    out.layers[i].calls = g_totals[i].calls.load();
    out.layers[i].seconds = static_cast<double>(g_totals[i].nanos.load()) * 1e-9;
    out.layers[i].items = g_totals[i].items.load();
    out.layers[i].failures = g_totals[i].failures.load();
  }
  out.run_seconds = static_cast<double>(g_run_nanos.load()) * 1e-9;
  out.covered_seconds = static_cast<double>(g_covered_nanos.load()) * 1e-9;
  out.featsel_ml_seconds =
      static_cast<double>(g_featsel_ml_nanos.load()) * 1e-9;
  return out;
}

LayerSpan::LayerSpan(Layer layer) : layer_(layer) {
  if (!LayersArmed()) return;
  armed_ = true;
  if (layer_ == Layer::kRun) {
    outer_run_state_ = t_in_run;
    outer_depth_ = t_depth;
    t_in_run = true;
    t_depth = 0;
  } else {
    ++t_depth;
  }
  trace_span_.emplace(LayerName(layer_), "perfbench");
  start_ = std::chrono::steady_clock::now();
}

LayerSpan::~LayerSpan() {
  if (!armed_) return;
  const uint64_t nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  trace_span_.reset();
  AtomicTotals& totals = TotalsOf(layer_);
  totals.calls.fetch_add(1, std::memory_order_relaxed);
  totals.nanos.fetch_add(nanos, std::memory_order_relaxed);
  if (layer_ == Layer::kRun) {
    g_run_nanos.fetch_add(nanos, std::memory_order_relaxed);
    t_in_run = outer_run_state_;
    t_depth = outer_depth_;
    return;
  }
  if (t_in_run && t_depth == 1) {
    g_covered_nanos.fetch_add(nanos, std::memory_order_relaxed);
    if (IsFeatselOrMl(layer_)) {
      g_featsel_ml_nanos.fetch_add(nanos, std::memory_order_relaxed);
    }
  }
  --t_depth;
}

void LayerSpan::AddItems(uint64_t count) {
  if (armed_) TotalsOf(layer_).items.fetch_add(count);
}

void LayerSpan::MarkFailed() {
  if (armed_) TotalsOf(layer_).failures.fetch_add(1);
}

}  // namespace arda::perfbench
