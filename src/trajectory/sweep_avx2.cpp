// AVX2 branch-and-bound candidate sweep. One lane per candidate instant;
// every lane walks the segment columns in the original order, so no
// addition is reassociated and every lane's value is bitwise what the
// scalar loop computes for that candidate. Which candidates are evaluated
// is decided by the exact range bound of sweep.hpp.
//
// This translation unit is compiled with -mavx2 -ffp-contract=off: AVX2
// for the instructions, contraction off so the compiler cannot fuse the
// mul+add accumulation into an FMA (a fused result rounds once instead of
// twice and would break the bit-identity contract with the scalar kernel).
#include "trajectory/sweep.hpp"

#if defined(AFDX_SWEEP_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace afdx::trajectory::sweep::detail {

namespace {

/// 4-lane frame_count; per lane identical to the scalar formula (vaddpd /
/// vdivpd / vroundpd-floor are the same IEEE-754 operations as their
/// scalar forms, and the window < -kEpsilon cutoff becomes a mask).
inline __m256d frame_count4(__m256d t, double a, double period) noexcept {
  const __m256d window = _mm256_add_pd(t, _mm256_set1_pd(a));
  const __m256d q = _mm256_add_pd(_mm256_div_pd(window, _mm256_set1_pd(period)),
                                  _mm256_set1_pd(1e-9));
  const __m256d n = _mm256_add_pd(_mm256_floor_pd(q), _mm256_set1_pd(1.0));
  const __m256d live =
      _mm256_cmp_pd(window, _mm256_set1_pd(-kEpsilon), _CMP_GE_OQ);
  return _mm256_and_pd(n, live);
}

/// A range [lo, hi) of candidates still to decide, and w_b >= W(t) for
/// every candidate in it. No member initializers: the stack below is not
/// zeroed on every sweep, and an entry is always written before it is read.
struct Range {
  std::size_t lo;
  std::size_t hi;
  Microseconds w_b;
};

/// Depth-first stack bound: a range of len > 4 candidates splits into 5
/// sub-ranges of at most (len + 1) / 5 each, so at most 4 siblings wait
/// per level and a size_t count nests fewer than 64 levels.
constexpr std::size_t kStackSize = 4 * 64 + 1;

}  // namespace

Outcome run_avx2(const Columns& cols, const Microseconds* candidates,
                 std::size_t count, Microseconds consts, Microseconds w_max,
                 Microseconds best) noexcept {
  double sat_t[kLatchNodes];
  std::fill_n(sat_t, kLatchNodes, std::numeric_limits<double>::infinity());

  Range stack[kStackSize];
  std::size_t top = 0;
  // The root carries w_max itself, so its shed test is bitwise the scalar
  // loop's envelope - t <= best.
  stack[top++] = Range{0, count, w_max};
  std::size_t evaluations = 0;
  while (top > 0) {
    const Range range = stack[--top];
    const std::size_t lo = range.lo;
    // Shed from the top: (w_b + consts) - t is nonincreasing in t, so the
    // candidates it cannot lift above `best` form a suffix.
    const Microseconds bound = range.w_b + consts;
    const std::size_t hi = static_cast<std::size_t>(
        std::partition_point(candidates + lo, candidates + range.hi,
                             [&](Microseconds t) { return !(bound - t <= best); }) -
        candidates);
    const std::size_t len = hi - lo;
    if (len == 0) continue;

    // A short range is evaluated whole (lanes past its end repeat its last
    // candidate); a longer one at 4 evenly spaced probes.
    std::size_t probe[4];
    const std::size_t lanes = std::min<std::size_t>(len, 4);
    for (std::size_t k = 0; k < 4; ++k) {
      probe[k] = len <= 4 ? lo + std::min(k, len - 1)
                          : lo + (k + 1) * (len + 1) / 5 - 1;
    }
    alignas(32) double lane_t[4];
    for (std::size_t k = 0; k < 4; ++k) lane_t[k] = candidates[probe[k]];
    const __m256d t = _mm256_load_pd(lane_t);
    __m256d w = _mm256_mul_pd(frame_count4(t, cols.own_a, cols.own_period),
                              _mm256_set1_pd(cols.own_c));
    for (std::size_t idx = 0; idx < cols.nodes; ++idx) {
      const double cap = cols.node_cap[idx];
      const bool latchable = idx < kLatchNodes;
      // Lanes ascend, so lane 0 holds the batch's smallest t.
      if (latchable && lane_t[0] >= sat_t[idx]) {
        w = _mm256_add_pd(w, _mm256_set1_pd(cap));
        continue;
      }
      __m256d node_sum = _mm256_setzero_pd();
      const std::size_t end = cols.node_begin[idx + 1];
      for (std::size_t s = cols.node_begin[idx]; s < end; ++s) {
        node_sum = _mm256_add_pd(
            node_sum, _mm256_mul_pd(frame_count4(t, cols.a[s], cols.period[s]),
                                    _mm256_set1_pd(cols.c[s])));
      }
      const __m256d capv = _mm256_set1_pd(cap);
      const __m256d hit = _mm256_cmp_pd(node_sum, capv, _CMP_GE_OQ);
      // The scalar branch adds cap when node_sum >= cap (ties included).
      w = _mm256_add_pd(w, _mm256_blendv_pd(node_sum, capv, hit));
      const int mask = _mm256_movemask_pd(hit);
      if (latchable && mask != 0) {
        sat_t[idx] = std::min(sat_t[idx], lane_t[__builtin_ctz(mask)]);
      }
    }
    alignas(32) double lane_w[4];
    alignas(32) double r[4];
    _mm256_store_pd(lane_w, w);
    _mm256_store_pd(
        r, _mm256_sub_pd(_mm256_add_pd(w, _mm256_set1_pd(consts)), t));
    for (std::size_t k = 0; k < lanes; ++k) best = std::max(best, r[k]);
    evaluations += lanes;
    if (len <= 4) continue;

    // Sub-ranges between the probes, pushed top first so the lowest pops
    // first; each is bounded by the probe just above it.
    const auto push = [&](std::size_t from, std::size_t to, Microseconds w_b) {
      if (from < to) stack[top++] = Range{from, to, w_b};
    };
    push(probe[3] + 1, hi, range.w_b);
    for (std::size_t k = 3; k > 0; --k) {
      push(probe[k - 1] + 1, probe[k], lane_w[k]);
    }
    push(lo, probe[0], lane_w[0]);
  }
  return Outcome{best, evaluations};
}

}  // namespace afdx::trajectory::sweep::detail

#endif  // AFDX_SWEEP_AVX2
