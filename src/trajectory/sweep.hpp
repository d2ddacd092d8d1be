// Candidate-sweep kernels for the trajectory analyzer's hot loop.
//
// compute_prefix maximizes R(t) = W(t) + consts - t over an ascending list
// of candidate instants t, where W(t) walks the SoA (a, c, period) segment
// columns node by node:
//
//   W(t) = frame_count(t, own) * own_c
//        + sum over nodes of min(sum over node segs of
//                                frame_count(t, a_s, period_s) * c_s, cap)
//
// Both kernels rest on one property: W is nondecreasing in t, also in
// floating point. Every frame count is nondecreasing in t (each IEEE-754
// operation of frame_count is monotone), every node sum adds nonnegative
// terms in a fixed order, and min() and + are monotone in each argument.
// Hence for t <= u, W(t) <= W(u), and (W(u) + consts) - t bounds R(t)
// from above, bitwise, for every such t.
//
// The scalar kernel is the plain ascending loop: it evaluates candidates
// in order and stops at the first one with envelope - t <= best, where
// envelope = w_max + consts and w_max = W(t_max) at the busy period's end.
// It is the oracle the SIMD kernel is tested against.
//
// The AVX2 kernel is an exact branch-and-bound over the same candidates.
// Every range of sorted candidates carries w_b, the W value at the
// evaluated candidate just above the range; the root carries w_max
// itself, so the root's test is bitwise the scalar's envelope - t test.
//   * Shed: while (w_b + consts) - t <= best at the range's top candidate,
//     drop it -- by monotonicity R(t) <= (w_b + consts) - t <= best, so
//     the candidate cannot raise the maximum.
//   * Branch: one 4-lane batch evaluates 4 evenly spaced probes (a range
//     of at most 4 candidates is evaluated whole), folds their R into
//     best, and splits the range into the 5 sub-ranges between the probes,
//     lowest first. The sub-range below probe k carries probe k's w; the
//     top one keeps the parent's w_b.
// The result is max(best, R(t) over every candidate): a candidate is
// skipped only when its R(t) provably does not exceed a value already in
// the maximum, and max is exact and order-free. The scalar loop computes
// the same maximum (its skipped tail obeys the same bound), so both
// kernels return the same bits. No rounding margin is involved.
//
// Per lane, every operation of W (add, div, floor, mul, add-accumulate,
// min-by-compare) is the same IEEE-754 operation in the same order as the
// scalar loop: the AVX2 kernel vectorizes across candidates, never across
// segments, and its translation unit is built with -ffp-contract=off so
// no mul+add fuses into an FMA.
//
// Saturation. A node's value is cap when its sum is >= cap (ties
// included). Once a node saturates at t0 it saturates at every t >= t0, so
// both kernels skip re-summing it:
//   * the scalar kernel latches the node at the first saturating
//     candidate and adds cap for every later one;
//   * the AVX2 kernel evaluates out of order, so it keeps a per-node
//     threshold sat_t[idx], the smallest instant seen saturating the node.
//     A lane uses the cap when its t >= sat_t[idx]: when the batch's
//     smallest t is >= sat_t[idx] the node is not summed at all, and
//     otherwise every lane is summed and the lanes at or above sat_t[idx]
//     reach the cap through their own sums.
// Both rules only replace a sum by the value it would have produced, so
// they never change W. Nodes past kLatchNodes have no latch slot and are
// always summed, which is equally exact.
//
// Kernel selection: the AVX2 kernel is compiled when the toolchain
// supports it (cmake -DAFDX_SIMD=ON, the default) and dispatched at run
// time only when the CPU reports AVX2. `AFDX_SWEEP=scalar|simd` in the
// environment forces a kind (the bit-identity tests run both in one
// process this way), as does set_active().
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace afdx::trajectory::sweep {

enum class Kind {
  kScalar,
  kSimd,
};

/// SoA view of one prefix's interference columns. `node_begin` has
/// `nodes + 1` entries; node idx owns rows [node_begin[idx],
/// node_begin[idx + 1]) of the a / c / period columns.
struct Columns {
  const Microseconds* a = nullptr;
  const Microseconds* c = nullptr;
  const Microseconds* period = nullptr;
  const std::size_t* node_begin = nullptr;
  const Microseconds* node_cap = nullptr;
  std::size_t nodes = 0;
  /// The study flow's own (first) segment.
  Microseconds own_a = 0.0;
  Microseconds own_c = 0.0;
  Microseconds own_period = 0.0;
};

/// Nodes with a saturation latch slot in either kernel (a fixed buffer on
/// the kernel's stack); later nodes are always summed.
inline constexpr std::size_t kLatchNodes = 64;

/// A sweep's maximum and the candidates it evaluated exactly (the
/// trajectory.sweep.evaluations work counter).
struct Outcome {
  Microseconds best = 0.0;
  std::size_t evaluations = 0;
};

/// True when the AVX2 kernel is both compiled in and supported by the CPU.
[[nodiscard]] bool simd_available() noexcept;

/// The kernel used by run() callers that pass active(). Defaults to kSimd
/// when simd_available(), overridable by AFDX_SWEEP=scalar|simd in the
/// environment (read once) and by set_active().
[[nodiscard]] Kind active() noexcept;
void set_active(Kind kind) noexcept;
[[nodiscard]] const char* name(Kind kind) noexcept;

/// The max of `best` and every R(t) = (W(t) + consts) - t over
/// `candidates[0..count)` (ascending), given w_max >= W(t) for every
/// candidate (W at the largest admissible instant). kind == kSimd
/// requires simd_available().
[[nodiscard]] Outcome run(Kind kind, const Columns& cols,
                          const Microseconds* candidates, std::size_t count,
                          Microseconds consts, Microseconds w_max,
                          Microseconds best) noexcept;

namespace detail {
/// The plain ascending loop with the envelope exit.
[[nodiscard]] Outcome run_scalar(const Columns& cols,
                                 const Microseconds* candidates,
                                 std::size_t count, Microseconds consts,
                                 Microseconds w_max, Microseconds best) noexcept;
#if defined(AFDX_SWEEP_AVX2)
/// The branch-and-bound sweep.
[[nodiscard]] Outcome run_avx2(const Columns& cols,
                               const Microseconds* candidates,
                               std::size_t count, Microseconds consts,
                               Microseconds w_max, Microseconds best) noexcept;
#endif
}  // namespace detail

}  // namespace afdx::trajectory::sweep
