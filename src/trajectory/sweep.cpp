#include "trajectory/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace afdx::trajectory::sweep {

namespace {

/// Same formula as the analyzer's frame_count: frames of a sporadic flow
/// (period T, window widened by a) interfering with a packet generated at
/// t. Pure IEEE-754 operations, no contraction targets on this TU, so the
/// result is bitwise the value the pre-SIMD analyzer computed inline.
inline double frame_count(Microseconds t, Microseconds a,
                          Microseconds period) noexcept {
  const double window = t + a;
  if (window < -kEpsilon) return 0.0;
  return std::floor(window / period + 1e-9) + 1.0;
}

Kind initial_kind() noexcept {
  if (const char* env = std::getenv("AFDX_SWEEP"); env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return Kind::kScalar;
    if (std::strcmp(env, "simd") == 0 && simd_available()) return Kind::kSimd;
  }
  return simd_available() ? Kind::kSimd : Kind::kScalar;
}

std::atomic<Kind>& active_slot() noexcept {
  static std::atomic<Kind> slot{initial_kind()};
  return slot;
}

}  // namespace

bool simd_available() noexcept {
#if defined(AFDX_SWEEP_AVX2)
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

Kind active() noexcept { return active_slot().load(std::memory_order_relaxed); }

void set_active(Kind kind) noexcept {
  if (kind == Kind::kSimd && !simd_available()) kind = Kind::kScalar;
  active_slot().store(kind, std::memory_order_relaxed);
}

const char* name(Kind kind) noexcept {
  return kind == Kind::kSimd ? "simd" : "scalar";
}

namespace detail {

Outcome run_scalar(const Columns& cols, const Microseconds* candidates,
                   std::size_t count, Microseconds consts, Microseconds w_max,
                   Microseconds best) noexcept {
  const Microseconds envelope = w_max + consts;
  bool saturated[kLatchNodes] = {};
  std::size_t ci = 0;
  for (; ci < count; ++ci) {
    const Microseconds t = candidates[ci];
    if (envelope - t <= best) break;
    Microseconds w = frame_count(t, cols.own_a, cols.own_period) * cols.own_c;
    for (std::size_t idx = 0; idx < cols.nodes; ++idx) {
      const bool latchable = idx < kLatchNodes;
      if (latchable && saturated[idx]) {
        w += cols.node_cap[idx];
        continue;
      }
      Microseconds node_sum = 0.0;
      for (std::size_t s = cols.node_begin[idx]; s < cols.node_begin[idx + 1];
           ++s) {
        node_sum += frame_count(t, cols.a[s], cols.period[s]) * cols.c[s];
      }
      if (node_sum >= cols.node_cap[idx]) {
        if (latchable) saturated[idx] = true;
        w += cols.node_cap[idx];
      } else {
        w += node_sum;
      }
    }
    best = std::max(best, w + consts - t);
  }
  return Outcome{best, ci};
}

}  // namespace detail

Outcome run(Kind kind, const Columns& cols, const Microseconds* candidates,
            std::size_t count, Microseconds consts, Microseconds w_max,
            Microseconds best) noexcept {
#if defined(AFDX_SWEEP_AVX2)
  if (kind == Kind::kSimd && simd_available()) {
    return detail::run_avx2(cols, candidates, count, consts, w_max, best);
  }
#else
  (void)kind;
#endif
  return detail::run_scalar(cols, candidates, count, consts, w_max, best);
}

}  // namespace afdx::trajectory::sweep
