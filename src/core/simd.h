// Runtime SIMD dispatch for the numeric kernel layer.
//
// Release binaries must stay portable (no -march=native), so the hot
// kernels in src/linalg/kernels.* are compiled at two instruction
// levels inside one translation unit (per-function target attributes)
// and the level to run is chosen at runtime from CPUID: AVX2+FMA when
// the CPU has it, else the scalar reference. The choice is
// process-wide and overridable:
//
//   ARRAYTRACK_FORCE_SCALAR=1   force the scalar reference paths
//   simd::force(level)          programmatic override (tests, benches);
//                               takes precedence over the environment
//
// Kernels re-read active() on every call (one relaxed atomic load per
// sweep, not per element), so an override is effective immediately.
//
// This header is a dependency-free leaf: src/linalg may include it even
// though linalg sits below core in the library graph.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace arraytrack::core::simd {

enum class Level : int { kScalar = 0, kAvx2 = 1 };

inline const char* name(Level l) {
  switch (l) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

/// Best level this CPU can execute, ignoring all overrides. AVX2 is
/// only reported together with FMA (the kernels use fused ops).
inline Level hardware_level() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Level::kAvx2;
#endif
  return Level::kScalar;
}

/// Never hand the kernels a level the CPU cannot run.
inline Level clamp_to_hardware(Level l) {
  const Level hw = hardware_level();
  return static_cast<int>(l) <= static_cast<int>(hw) ? l : hw;
}

/// Level requested by hardware detection plus the
/// ARRAYTRACK_FORCE_SCALAR environment override.
inline Level detect() {
  if (const char* fs = std::getenv("ARRAYTRACK_FORCE_SCALAR");
      fs && fs[0] != '\0' && std::strcmp(fs, "0") != 0)
    return Level::kScalar;
  return hardware_level();
}

namespace detail {
inline std::atomic<int>& level_slot() {
  static std::atomic<int> slot{-1};  // -1 = not yet detected
  return slot;
}
}  // namespace detail

/// The dispatch level every kernel call uses right now.
inline Level active() {
  int v = detail::level_slot().load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(detect());
    detail::level_slot().store(v, std::memory_order_relaxed);
  }
  return static_cast<Level>(v);
}

/// Process-wide override (clamped to hardware). Used by the dispatch
/// tests and the kernel microbenchmark to pin a level.
inline void force(Level l) {
  detail::level_slot().store(static_cast<int>(clamp_to_hardware(l)),
                             std::memory_order_relaxed);
}

/// Drop any force() override and re-run environment + CPUID detection.
inline void reset() {
  detail::level_slot().store(static_cast<int>(detect()),
                             std::memory_order_relaxed);
}

/// RAII level override for tests: restores the previous level on exit.
class ForcedLevel {
 public:
  explicit ForcedLevel(Level l) : prev_(active()) { force(l); }
  ~ForcedLevel() { force(prev_); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;

 private:
  Level prev_;
};

}  // namespace arraytrack::core::simd
