// Runtime dispatch for the arda::simd kernels. This translation unit is
// compiled WITHOUT -mavx2 (baseline x86-64), so the binary can safely
// reach this code on any machine; only the guarded calls into
// kernels_avx2.cc require AVX2, and they are taken only after the CPU
// probe succeeds.

#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "simd/kernels.h"
#include "util/metrics.h"

namespace arda::simd {

namespace {

[[maybe_unused]] bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  // Masked by the OS XCR0 state, so this is also false when the kernel
  // does not save the ymm registers.
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdLevel HighestSupported() {
  return Avx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

SimdLevel ResolveFromEnv() {
  const char* env = std::getenv("ARDA_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar") {
    return SimdLevel::kScalar;
  }
  // "auto", "avx2" and anything unrecognized resolve to the highest
  // supported level: "avx2" on a machine without AVX2 degrades instead of
  // crashing on an illegal instruction, and --simd= reports unknown specs
  // as errors.
  return HighestSupported();
}

// The dispatch level. ARDA_SIMD is consulted exactly once per process —
// by the explicit InitFromEnvironment() call in main(), or lazily on the
// first kernel dispatch for library embedders that never call it. Either
// way the read happens through one std::once_flag, so no worker thread
// ever races std::getenv against a setenv elsewhere in the process, and
// later environment changes are deliberately invisible (the level is
// process-wide, not per-request; see docs/observability.md).
std::atomic<int> g_level{static_cast<int>(SimdLevel::kScalar)};
std::once_flag g_env_once;

void InitFromEnvOnce() {
  std::call_once(g_env_once, [] {
    g_level.store(static_cast<int>(ResolveFromEnv()),
                  std::memory_order_relaxed);
  });
}

std::atomic<int>& LevelStorage() {
  InitFromEnvOnce();
  return g_level;
}

}  // namespace

void InitFromEnvironment() { InitFromEnvOnce(); }

bool Avx2Supported() {
#if ARDA_SIMD_COMPILED_AVX2
  static const bool supported = CpuHasAvx2();
  return supported;
#else
  return false;
#endif
}

SimdLevel ActiveLevel() {
  return static_cast<SimdLevel>(
      LevelStorage().load(std::memory_order_relaxed));
}

const char* LevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* ActiveLevelName() { return LevelName(ActiveLevel()); }

bool SetLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !Avx2Supported()) return false;
  LevelStorage().store(static_cast<int>(level),
                       std::memory_order_relaxed);
  return true;
}

bool SetLevelFromSpec(std::string_view spec) {
  if (spec == "auto") return SetLevel(HighestSupported());
  if (spec == "scalar") return SetLevel(SimdLevel::kScalar);
  if (spec == "avx2") return SetLevel(SimdLevel::kAvx2);
  return false;
}

std::string DispatchSummary() { return ActiveLevelName(); }

void PublishLevelMetrics() {
  metrics::SetGauge("simd.level",
                    static_cast<double>(static_cast<int>(ActiveLevel())));
  metrics::SetGauge("simd.avx2_supported", Avx2Supported() ? 1.0 : 0.0);
}

// Every kernel dispatches on the cached level; `return` of a void call is
// deliberate so one macro covers both void and value-returning kernels.
#if ARDA_SIMD_COMPILED_AVX2
#define ARDA_SIMD_DISPATCH(fn, ...)                     \
  do {                                                  \
    if (ActiveLevel() == SimdLevel::kAvx2) {            \
      return internal::fn##_Avx2(__VA_ARGS__);          \
    }                                                   \
    return internal::fn##_Scalar(__VA_ARGS__);          \
  } while (0)
#else
#define ARDA_SIMD_DISPATCH(fn, ...) \
  return internal::fn##_Scalar(__VA_ARGS__)
#endif

void TupleHashBatch(const uint32_t* ids, size_t num_cols, size_t stride,
                    size_t n, uint64_t* out) {
  ARDA_SIMD_DISPATCH(TupleHashBatch, ids, num_cols, stride, n, out);
}

void ClassSquares(const double* left_counts, const double* class_counts,
                  size_t num_classes, double* left_sq, double* right_sq) {
  ARDA_SIMD_DISPATCH(ClassSquares, left_counts, class_counts, num_classes,
                     left_sq, right_sq);
}

void GatherValsTargets(const double* col, const double* y,
                       const uint32_t* idx, size_t n, double* vals,
                       double* ys) {
  ARDA_SIMD_DISPATCH(GatherValsTargets, col, y, idx, n, vals, ys);
}

double SquaredDistance(const double* a, const double* b, size_t n) {
  ARDA_SIMD_DISPATCH(SquaredDistance, a, b, n);
}

void SquaredDistanceToMany(const double* query, const double* base,
                           size_t num_points, size_t dims, double* out) {
  ARDA_SIMD_DISPATCH(SquaredDistanceToMany, query, base, num_points, dims,
                     out);
}

void DecodeU64LeToDouble(const char* src, size_t n, double* dst) {
  ARDA_SIMD_DISPATCH(DecodeU64LeToDouble, src, n, dst);
}

void DecodeU64LeToInt64(const char* src, size_t n, int64_t* dst) {
  ARDA_SIMD_DISPATCH(DecodeU64LeToInt64, src, n, dst);
}

void MultiplyAddRows(const double* const* rows, const double* coef,
                     size_t k, double* y, size_t n) {
  ARDA_SIMD_DISPATCH(MultiplyAddRows, rows, coef, k, y, n);
}

#undef ARDA_SIMD_DISPATCH

}  // namespace arda::simd
