// Trajectory-approach analyzer for AFDX FIFO networks.
//
// Reconstructed from the DATE 2010 paper, Martin & Minet (IPDPS 2006) and
// Bauer et al. (ETFA 2009) -- see DESIGN.md section 3.2. For a flow i whose
// path crosses the output ports (h_1 ... h_q), the worst-case end-to-end
// delay of a packet generated at time t within the first-node busy period
// is bounded by R_i(t) = W_i(t) + C_i(h_q) - t with
//
//   W_i(t) = sum over flows j crossing the path (segment by segment, first
//            shared node f) of N_j(t) * C_j,
//            N_j(t) = (1 + floor((t + A_ij) / BAG_j))+,
//            A_ij   = jitter of j at f + jitter of i at f,
//          + sum over h_2..h_q of max_{j in fl(h_k)} C_j(h_k)   [the
//            double-counted busy-period boundary packet -- the paper's
//            stated pessimism source for flows with small s_max]
//          + sum over h_2..h_q of technological latencies
//          - C_i(h_1),
//
// maximized exactly over the finite candidate set of t (frame-count jump
// points) within the first busy period.
//
// Serialization refinement (enabled by default; the paper's "grouping
// technique successfully introduced in the trajectory approach"): under
// FIFO, the flows first met at node f can only delay the packet through
// frames that are *queued at f when the packet arrives* (later frames stay
// behind it on the rest of the shared route). Their counted work is
// therefore capped by the worst-case FIFO backlog of the port, obtained
// from the same leaky-bucket envelopes the AFDX admission control
// guarantees (vertical deviation, see netcalc). This reconstruction is
// validated two ways (DESIGN.md): analytic bounds dominate every simulated
// schedule, and the published qualitative behaviours emerge.
//
// With `serialization = false` the analyzer reproduces the historical,
// pre-grouping trajectory approach instead: the worst-case scenario then
// assumes the first frames of flows sharing an input link reach the merge
// node simultaneously -- an impossible pattern (paper Fig. 3) whose cost is
// the serialization surcharge sum_g (sum_{j in g} C_j - max_{j in g} C_j).
//
// The jitter of a flow at a node is obtained by running the analysis
// recursively on the flow's path prefix (memoized per (VL, link) crossing;
// a cyclic dependency between prefixes is reported as an error --
// industrial AFDX configurations are feed-forward).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "trajectory/slot_table.hpp"
#include "vl/traffic_config.hpp"

namespace afdx::netcalc {
struct Result;
}

namespace afdx::trajectory {

class PrefixCache;

struct Options {
  /// Apply the serialization (grouping) refinement. When false, the
  /// historical simultaneous-arrival worst case is used instead.
  bool serialization = true;
  /// Bound the double-counted busy-period boundary packet by the largest
  /// frame of ANY VL met in the node (the paper's wording) instead of the
  /// refined set of VLs actually routed through the node transition.
  bool loose_boundary_packet = false;
};

/// Full analysis result.
struct Result {
  /// End-to-end bounds, aligned with TrafficConfig::all_paths().
  std::vector<Microseconds> path_bounds;
};

/// Trajectory analyzer. Reads the configuration's SlotTable and keeps the
/// prefix bounds in a PrefixCache, so repeated queries stay cheap; only the
/// recursion's own state (per-slot progress bytes, scratch) is per instance.
class Analyzer {
 public:
  /// A standalone analyzer with its own slot table and prefix store.
  explicit Analyzer(const TrafficConfig& config, const Options& options = {});
  /// A shard analyzer over `store`, whose slot table was built from
  /// `config`: prefix bounds are looked up there after the instance's own
  /// state misses, and every freshly computed bound is published back. The
  /// caller guarantees every analyzer sharing one store runs the same
  /// (configuration, options, caps) -- the bounds are pure functions of
  /// that triple, so sharing never changes a result.
  Analyzer(const TrafficConfig& config, const Options& options,
           std::shared_ptr<PrefixCache> store);
  ~Analyzer();  // out of line: ScratchFrame is incomplete here

  /// Bounds for every VL path of the configuration.
  [[nodiscard]] Result analyze();

  /// Bound for one path.
  [[nodiscard]] Microseconds path_bound(PathRef ref);

  /// Worst-case time from generation to the end of transmission on `link`
  /// (a link of the VL's tree). This is the prefix bound the recursion is
  /// built on; exposed for tests.
  [[nodiscard]] Microseconds bound_to_link(VlId vl, LinkId link);

  /// Best-case (jitter-free) time from generation to *arrival in the queue*
  /// of `link`. Exposed for tests.
  [[nodiscard]] Microseconds min_arrival_at(VlId vl, LinkId link) const;

  /// Worst-case time from generation to *arrival in the queue* of `link`.
  [[nodiscard]] Microseconds max_arrival_at(VlId vl, LinkId link);

  /// Injects precomputed serialization caps (see serialization_caps)
  /// instead of running the analyzer's own envelope analysis, so that many
  /// analyzers can share one WCNC pass.
  void set_backlog_caps(std::vector<Microseconds> caps);

  /// Where this instance's prefix lookups were answered: its own state
  /// (a bound it computed or already read), the shared store, or neither
  /// (freshly computed). The engine surfaces these per shard -- with
  /// locality-aware VL ordering, neighbouring VLs share prefixes, so a
  /// healthy shard shows a high local hit rate.
  struct CacheCounters {
    std::uint64_t lookups = 0;
    std::uint64_t local_hits = 0;
    std::uint64_t shared_hits = 0;
  };
  [[nodiscard]] const CacheCounters& counters() const noexcept {
    return counters_;
  }

 private:
  /// Progress of a slot's prefix bound in this instance. kInProgress is
  /// the cycle guard of the recursion stack and must never be shared;
  /// kDone means the store holds the bound and this instance has read or
  /// written it (a later lookup is a local hit).
  enum SlotState : std::uint8_t {
    kEmpty = 0,
    kInProgress = 1,
    kDone = 2,
  };

  /// Reusable per-prefix scratch (segment lists, candidate buffer,
  /// epoch-validated open-segment table). compute_prefix re-enters itself
  /// through bound_at while a frame is mid-construction, so the scratch is
  /// a pool indexed by recursion depth, not flat instance state.
  struct ScratchFrame;

  /// The slot of (vl, link); throws when the VL does not cross the link.
  [[nodiscard]] Slot slot_of(VlId vl, LinkId link) const;
  Microseconds bound_at(Slot slot, VlId vl, LinkId link);
  Microseconds compute_prefix(Slot slot, VlId vl, LinkId last);

  /// The serialization caps, computed lazily from a serial default-options
  /// WCNC run unless set_backlog_caps injected them.
  const std::vector<Microseconds>& backlog_caps();

  const TrafficConfig& cfg_;
  Options opt_;
  /// The prefix bounds, shared or private; it owns the slot table.
  std::shared_ptr<PrefixCache> store_;
  /// store_->table(): every link's crossings in vls_on_link order (so
  /// ascending by VlId); link l's rows are [begin(l), end(l)).
  const SlotTable& table_;
  /// One SlotState per slot, starting at kEmpty.
  std::unique_ptr<std::uint8_t[]> slot_state_;
  std::optional<std::vector<Microseconds>> backlog_caps_;
  /// Scratch pool, one frame per live recursion depth (frames are created
  /// on first use and keep their capacity across prefixes).
  std::vector<std::unique_ptr<ScratchFrame>> scratch_pool_;
  std::size_t scratch_depth_ = 0;
  /// Bump arena for the per-prefix SoA candidate-sweep columns: each
  /// compute_prefix carves its columns here and rewinds to its entry mark
  /// on exit, so the sweep streams the same few hot pages for every prefix
  /// of the shard instead of striding heap-grown vectors. (Columns are
  /// only allocated after the segment recursion returns, so marks nest
  /// strictly and a rewind can never free a caller's columns.)
  common::BumpArena arena_;
  CacheCounters counters_;
};

/// The serialization caps of a configuration (DESIGN.md section 3.2): for
/// every port the WCNC pass `nc` reported (PortReport::used), its
/// worst-case FIFO queue content in time units at the port's rate,
/// queue_backlog / rate; +infinity (no refinement) for every other port --
/// unused, failed, skipped or absent from `nc`. `nc` is the pass under
/// default netcalc::Options: the caps depend only on the configuration,
/// never on the WCNC options of the caller.
[[nodiscard]] std::vector<Microseconds> serialization_caps(
    const TrafficConfig& config, const netcalc::Result& nc);

/// One-shot convenience wrapper.
[[nodiscard]] Result analyze(const TrafficConfig& config,
                             const Options& options = {});

}  // namespace afdx::trajectory
