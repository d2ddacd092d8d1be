#include "trajectory/trajectory_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "netcalc/netcalc_analyzer.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "trajectory/prefix_cache.hpp"
#include "trajectory/sweep.hpp"

namespace afdx::trajectory {

namespace {

/// Hard cap on busy-period fixed-point rounds (guards divergence when the
/// summed path utilization is >= 1).
constexpr int kMaxBusyIterations = 10000;

/// Number of frames of a sporadic flow (period T, arrival window widened by
/// the jitter term a) that can interfere with a packet generated at t.
double frame_count(Microseconds t, Microseconds a, Microseconds period) {
  const double window = t + a;
  if (window < -kEpsilon) return 0.0;
  return std::floor(window / period + 1e-9) + 1.0;
}

/// One interference term: a maximal run of consecutive shared nodes of an
/// interfering flow along the study path.
struct Segment {
  Microseconds a = 0.0;       // jitter window widening A_ij
  Microseconds c = 0.0;       // largest per-node transmission time in the run
  Microseconds period = 0.0;  // BAG of j
};

}  // namespace

// Reusable per-prefix scratch. All vectors keep their capacity across
// prefixes; the vl_count-sized open-segment table is validated by epoch
// instead of being cleared (clearing would cost O(vl_count) per prefix,
// prohibitive on 100k-VL configurations).
struct Analyzer::ScratchFrame {
  std::vector<LinkId> sub;
  std::vector<Slot> sub_slots;
  std::vector<Segment> segments;
  std::vector<std::vector<std::size_t>> node_first_met;
  // The SoA a / c / period columns themselves live on the analyzer's bump
  // arena (carved per prefix, rewound on exit); only the variable-length
  // candidate buffer stays a pooled vector here.
  std::vector<Microseconds> candidates;
  /// Open segment per flow, indexed by VlId: index into `segments` and
  /// last covered node. An entry is live only when its epoch matches the
  /// frame's current one, so bumping the epoch invalidates the whole table
  /// in O(1); epoch 0 is never current.
  struct OpenSegment {
    std::uint32_t seg = 0;
    std::uint32_t last = 0;
    std::uint32_t epoch = 0;
  };
  std::vector<OpenSegment> open;
  std::uint32_t epoch = 0;
};

Analyzer::~Analyzer() = default;

Analyzer::Analyzer(const TrafficConfig& config, const Options& options)
    : Analyzer(config, options,
               std::make_shared<PrefixCache>(
                   std::make_shared<const SlotTable>(config), nullptr)) {}

Analyzer::Analyzer(const TrafficConfig& config, const Options& options,
                   std::shared_ptr<PrefixCache> store)
    : cfg_(config),
      opt_(options),
      store_(std::move(store)),
      table_(store_->table()),
      slot_state_(std::make_unique<std::uint8_t[]>(table_.size())) {
  AFDX_REQUIRE(table_.link_count() == cfg_.network().link_count(),
               "trajectory: the slot table was built for another network");
}

void Analyzer::set_backlog_caps(std::vector<Microseconds> caps) {
  AFDX_REQUIRE(caps.size() == cfg_.network().link_count(),
               "trajectory: backlog cap vector does not match the network's "
               "link count");
  backlog_caps_ = std::move(caps);
}

const std::vector<Microseconds>& Analyzer::backlog_caps() {
  if (!backlog_caps_.has_value()) {
    // An unstable port makes the serial envelope analysis throw; the empty
    // result then leaves every port uncapped.
    netcalc::Result nc;
    if (opt_.serialization) {
      try {
        nc = netcalc::analyze(cfg_);
      } catch (const Error&) {
      }
    }
    backlog_caps_ = serialization_caps(cfg_, nc);
  }
  return *backlog_caps_;
}

std::vector<Microseconds> serialization_caps(const TrafficConfig& config,
                                             const netcalc::Result& nc) {
  const std::size_t n_links = config.network().link_count();
  std::vector<Microseconds> caps(n_links,
                                 std::numeric_limits<Microseconds>::infinity());
  for (LinkId l = 0; l < n_links && l < nc.ports.size(); ++l) {
    if (nc.ports[l].used) {
      caps[l] = nc.ports[l].queue_backlog / config.network().link(l).rate;
    }
  }
  return caps;
}

Slot Analyzer::slot_of(VlId vl, LinkId link) const {
  AFDX_REQUIRE(link < cfg_.network().link_count(),
               "trajectory: link id out of range");
  const Slot slot = table_.find(vl, link);
  AFDX_REQUIRE(slot != kNoSlot, "trajectory: VL does not cross link");
  return slot;
}

Microseconds Analyzer::min_arrival_at(VlId vl, LinkId link) const {
  return table_[slot_of(vl, link)].min_arrival;
}

Microseconds Analyzer::max_arrival_at(VlId vl, LinkId link) {
  const VlRoute& route = cfg_.route(vl);
  AFDX_REQUIRE(route.crosses(link), "max_arrival_at: VL does not cross link");
  const LinkId pred = route.predecessor(link);
  if (pred == kInvalidLink) return 0.0;  // queued at generation time
  return bound_to_link(vl, pred) + cfg_.network().link(link).latency;
}

Microseconds Analyzer::bound_to_link(VlId vl, LinkId link) {
  return bound_at(slot_of(vl, link), vl, link);
}

Microseconds Analyzer::bound_at(Slot slot, VlId vl, LinkId link) {
  ++counters_.lookups;
  std::uint8_t& state = slot_state_[slot];
  if (state == kDone) {
    ++counters_.local_hits;
    return *store_->lookup(slot);
  }
  if (const auto cached = store_->lookup(slot); cached.has_value()) {
    ++counters_.shared_hits;
    state = kDone;
    return *cached;
  }
  AFDX_REQUIRE(state != kInProgress,
               "trajectory: cyclic prefix dependency involving VL " +
                   cfg_.vl(vl).name +
                   " (the trajectory approach requires a feed-forward "
                   "configuration)");
  state = kInProgress;
  // Clear the marker on every exit path. compute_prefix throws on
  // divergence (unstable path utilization), and analyzer instances are
  // reused across paths by the engine and the ladder; a leaked marker
  // would make every later prefix that reaches this slot falsely fail
  // with the cyclic-dependency error above.
  struct ClearGuard {
    std::uint8_t& state;
    ~ClearGuard() {
      if (state == kInProgress) state = kEmpty;
    }
  } guard{state};
  const Microseconds bound = compute_prefix(slot, vl, link);
  store_->store(slot, bound);
  state = kDone;
  return bound;
}

Microseconds Analyzer::compute_prefix(Slot slot, VlId i, LinkId last) {
  AFDX_TRACE_SPAN("trajectory.prefix", "trajectory");
  static obs::Counter& prefixes =
      obs::registry().counter("trajectory.prefixes");
  prefixes.add();
  const Network& net = cfg_.network();

  // One pooled scratch frame per live recursion depth. bound_at
  // re-enters compute_prefix while this frame is mid-construction, so the
  // scratch cannot be flat instance state -- but pooling frames by depth
  // still removes the per-prefix reallocation of every vector below.
  if (scratch_depth_ == scratch_pool_.size()) {
    scratch_pool_.push_back(std::make_unique<ScratchFrame>());
  }
  ScratchFrame& fr = *scratch_pool_[scratch_depth_];
  ++scratch_depth_;
  struct DepthGuard {
    std::size_t& depth;
    ~DepthGuard() { --depth; }
  } depth_guard{scratch_depth_};

  // Arena rewind point for this prefix's SoA columns. Columns are carved
  // only after the segment recursion below returns, so marks nest strictly
  // (a child prefix allocates and rewinds before its parent allocates) and
  // the steady state reuses the same hot arena pages for every prefix.
  struct ArenaGuard {
    common::BumpArena& arena;
    common::BumpArena::Mark mark;
    ~ArenaGuard() { arena.rewind(mark); }
  } arena_guard{arena_, arena_.mark()};

  // The unique tree prefix l_0 .. l_{m-1} ending at `last`, and its slots.
  std::vector<LinkId>& sub = fr.sub;
  std::vector<Slot>& sub_slots = fr.sub_slots;
  sub.clear();
  sub_slots.clear();
  for (Slot s = slot; s != kNoSlot; s = table_[s].pred_slot) {
    sub.push_back(sub.empty() ? last : table_[sub_slots.back()].pred);
    sub_slots.push_back(s);
  }
  std::reverse(sub.begin(), sub.end());
  std::reverse(sub_slots.begin(), sub_slots.end());
  const std::size_t m = sub.size();

  auto c_of = [&](VlId j, LinkId l) {
    return cfg_.vl(j).max_transmission_time(net.link(l).rate);
  };

  // --- Interference segments -------------------------------------------------
  // A flow j contributes one term per maximal run of consecutive shared
  // nodes; the run is "consecutive" only when j actually travels along i's
  // path (its predecessor at node k is node k-1).
  std::vector<Segment>& segments = fr.segments;
  segments.clear();
  std::size_t own_segment = 0;  // index of i's own (first) segment
  // Open segment per flow (see ScratchFrame::OpenSegment); on the rare
  // epoch wrap-around the table is cleared once.
  if (fr.open.size() != cfg_.vl_count() || fr.epoch == ~std::uint32_t{0}) {
    fr.open.assign(cfg_.vl_count(), ScratchFrame::OpenSegment{});
    fr.epoch = 0;
  }
  const std::uint32_t epoch = ++fr.epoch;

  // Segments grouped by their starting node (for the FIFO backlog caps) and
  // by (starting node, input link) (for the simultaneity surcharge of the
  // non-serialized variant). i's own segment is excluded from both.
  if (fr.node_first_met.size() < m) fr.node_first_met.resize(m);
  for (std::size_t idx = 0; idx < m; ++idx) fr.node_first_met[idx].clear();
  std::vector<std::vector<std::size_t>>& node_first_met = fr.node_first_met;
  struct LinkGroup {
    Microseconds sum_c = 0.0;
    Microseconds max_c = 0.0;
    int members = 0;
  };
  // Only the non-serialized variant reads the groups (surcharge below).
  std::map<std::pair<std::size_t, LinkId>, LinkGroup> link_groups;

  for (std::size_t idx = 0; idx < m; ++idx) {
    const LinkId lk = sub[idx];
    const Microseconds latency_lk = net.link(lk).latency;
    // The study packet's own arrival-window term is the same for every
    // flow first met at this node; computed lazily on the first new
    // segment (so the exact set of recursive prefix computations is
    // unchanged) and reused for the rest of the node's flows.
    bool jitter_i_cached = false;
    Microseconds jitter_i_node = 0.0;
    for (Slot s = table_.begin(lk); s < table_.end(lk); ++s) {
      const FlowAtLink& f = table_[s];
      const VlId j = f.id;
      const LinkId pred_j = f.pred;
      ScratchFrame::OpenSegment& open = fr.open[j];
      if (open.epoch == epoch && idx > 0 && open.last == idx - 1 &&
          pred_j == sub[idx - 1]) {
        // j keeps travelling along i's path: extend its segment.
        Segment& seg = segments[open.seg];
        seg.c = std::max(seg.c, f.c);
        open.last = static_cast<std::uint32_t>(idx);
        continue;
      }
      // New segment starting at node lk. The arrival window of j at this
      // node is widened by its source release jitter plus the spread
      // between its best- and worst-case prefix traversal.
      const Microseconds max_arr_j =
          f.release_jitter +
          ((pred_j == kInvalidLink)
               ? 0.0
               : bound_at(f.pred_slot, j, pred_j) + latency_lk);
      const Microseconds jitter_j = max_arr_j - f.min_arrival;
      Microseconds jitter_i = 0.0;
      if (j != i || idx > 0) {
        // The study packet's own release instant is the time origin, so
        // only its traversal spread (not its release jitter) widens the
        // window.
        if (!jitter_i_cached) {
          const Microseconds max_arr_i =
              (idx == 0) ? 0.0
                         : bound_at(sub_slots[idx - 1], i, sub[idx - 1]) +
                               latency_lk;
          jitter_i_node = max_arr_i - table_[sub_slots[idx]].min_arrival;
          jitter_i_cached = true;
        }
        jitter_i = jitter_i_node;
      }
      Segment seg;
      seg.a = jitter_j + jitter_i;
      seg.c = f.c;
      seg.period = f.period;
      segments.push_back(seg);
      // `open` survived the bound_at recursion above: deeper prefixes use
      // their own frames.
      open = ScratchFrame::OpenSegment{
          static_cast<std::uint32_t>(segments.size() - 1),
          static_cast<std::uint32_t>(idx), epoch};

      if (j == i && idx == 0) {
        own_segment = segments.size() - 1;
        continue;
      }
      node_first_met[idx].push_back(segments.size() - 1);
      if (!opt_.serialization && pred_j != kInvalidLink) {
        LinkGroup& g = link_groups[{idx, pred_j}];
        g.sum_c += seg.c;
        g.max_c = std::max(g.max_c, seg.c);
        ++g.members;
      }
    }
  }

  // --- Constant terms --------------------------------------------------------
  // Double-counted busy-period boundary packet at every node after the
  // first: bounded by the largest frame of a VL met in that node (the
  // paper's stated over-approximation), plus the technological latencies.
  Microseconds delta_sum = 0.0;
  Microseconds latency_sum = 0.0;
  for (std::size_t idx = 1; idx < m; ++idx) {
    const LinkId lk = sub[idx];
    Microseconds biggest = 0.0;
    for (Slot s = table_.begin(lk); s < table_.end(lk); ++s) {
      const FlowAtLink& f = table_[s];
      // The boundary packet closes the busy period of node idx-1 and opens
      // the one of node idx, so it physically travels that transition;
      // only flows routed through it qualify (always at least flow i).
      // The loose variant keeps the paper's wording: any VL met in the node.
      if (!opt_.loose_boundary_packet && f.pred != sub[idx - 1]) {
        continue;
      }
      biggest = std::max(biggest, f.c);
    }
    delta_sum += biggest;
    latency_sum += net.link(lk).latency;
  }

  // Non-serialized variant: the assumed-simultaneous first frames of each
  // shared-input-link group cost their serialization span on top (Fig. 3
  // versus Fig. 4 of the paper).
  Microseconds surcharge = 0.0;
  if (!opt_.serialization) {
    for (const auto& [key, g] : link_groups) {
      if (g.members >= 2) surcharge += g.sum_c - g.max_c;
    }
  }

  const Microseconds c_first = c_of(i, sub.front());
  const Microseconds c_last = c_of(i, sub.back());
  const Microseconds consts =
      delta_sum + latency_sum + surcharge - c_first + c_last;

  // Serialization caps: per node, the first-met flows cannot have more work
  // queued in front of the packet than the port's worst-case FIFO backlog.
  const std::vector<Microseconds>& caps = backlog_caps();

  // Flatten the per-node segment lists into contiguous SoA columns (same
  // node-by-node summation order, so the bound is arithmetic-identical) --
  // response() below is evaluated O(candidates x busy rounds) times and
  // dominates the whole analysis; streaming a / c / period as three
  // separate arrays lets the sweep kernel vectorize across candidates.
  // Capping by +infinity is exact, which makes the serialization branch
  // loop-invariant. The columns are carved from the per-analyzer bump
  // arena (rewound on exit, see ArenaGuard above): exact-size, adjacent in
  // one block, no vector growth bookkeeping in the hot path.
  const std::size_t seg_total = segments.size();
  Microseconds* const flat_a = arena_.alloc_array<Microseconds>(seg_total);
  Microseconds* const flat_c = arena_.alloc_array<Microseconds>(seg_total);
  Microseconds* const flat_period =
      arena_.alloc_array<Microseconds>(seg_total);
  std::size_t* const node_begin = arena_.alloc_array<std::size_t>(m + 1);
  Microseconds* const node_cap = arena_.alloc_array<Microseconds>(m);
  std::size_t cursor = 0;
  for (std::size_t idx = 0; idx < m; ++idx) {
    node_begin[idx] = cursor;
    for (std::size_t s : node_first_met[idx]) {
      flat_a[cursor] = segments[s].a;
      flat_c[cursor] = segments[s].c;
      flat_period[cursor] = segments[s].period;
      ++cursor;
    }
    node_cap[idx] = opt_.serialization
                        ? caps[sub[idx]]
                        : std::numeric_limits<Microseconds>::infinity();
  }
  node_begin[m] = cursor;
  const Segment own = segments[own_segment];

  auto response = [&](Microseconds t) {
    Microseconds w = frame_count(t, own.a, own.period) * own.c;
    for (std::size_t idx = 0; idx < m; ++idx) {
      Microseconds node_sum = 0.0;
      for (std::size_t s = node_begin[idx]; s < node_begin[idx + 1]; ++s) {
        node_sum += frame_count(t, flat_a[s], flat_period[s]) * flat_c[s];
      }
      w += std::min(node_sum, node_cap[idx]);
    }
    return w + consts - t;
  };

  // --- Busy period ------------------------------------------------------------
  // response(0) seeds both the busy-period fixed point and the sweep's
  // running maximum below; it is a pure function of the columns, so one
  // evaluation serves both (bit-identical to evaluating it twice).
  const Microseconds response_at_zero = response(0.0);
  Microseconds busy = std::max<Microseconds>(response_at_zero, 0.0);
  int rounds = 0;
  for (; rounds < kMaxBusyIterations; ++rounds) {
    const Microseconds next = response(busy) + busy;  // workload at `busy`
    if (next <= busy + kEpsilon) break;
    busy = next;
    AFDX_REQUIRE(busy < 1e12,
                 "trajectory: busy period diverges for VL " + cfg_.vl(i).name +
                     " (summed path utilization >= 1)");
  }
  AFDX_REQUIRE(rounds < kMaxBusyIterations,
               "trajectory: busy-period fixed point did not converge for VL " +
                   cfg_.vl(i).name);
  // Competing-frame accounting: segment count and busy-period growth are
  // the two cost drivers of the prefix recursion.
  static obs::Histogram& seg_hist =
      obs::registry().histogram("trajectory.segments_per_prefix");
  static obs::Histogram& round_hist =
      obs::registry().histogram("trajectory.busy_rounds");
  seg_hist.observe(segments.size());
  round_hist.observe(static_cast<std::uint64_t>(rounds));
  static obs::Histogram& cand_hist =
      obs::registry().histogram("trajectory.candidates_per_prefix");

  // The workload W(t) is nondecreasing in t (frame_count is, and
  // floating-point rounding is monotone, so the property survives fl
  // arithmetic). Its value w_max at the largest admissible t therefore
  // bounds W at every candidate: the sweep's exact prunings start from it
  // (sweep.hpp), and the generation cut below uses envelope - t.
  const Microseconds t_max = busy + kEpsilon;
  Microseconds w_max = frame_count(t_max, own.a, own.period) * own.c;
  for (std::size_t idx = 0; idx < m; ++idx) {
    Microseconds node_sum = 0.0;
    for (std::size_t s = node_begin[idx]; s < node_begin[idx + 1]; ++s) {
      node_sum += frame_count(t_max, flat_a[s], flat_period[s]) * flat_c[s];
    }
    w_max += std::min(node_sum, node_cap[idx]);
  }
  const Microseconds envelope = w_max + consts;

  // --- Maximize over the candidate generation instants ------------------------
  // R(t) decreases with slope -1 between frame-count jumps (the caps are
  // constants), so the max is attained at t = 0 or at a jump. Segments with
  // equal (BAG, A) generate bitwise-equal jump instants, which the sort +
  // unique below removes (max over the same value set is order-free).
  // Generation cut: `best` is nondecreasing from response(0), so any
  // candidate with envelope - t <= response(0) is provably pruned by the
  // sweep's envelope check -- skip materializing it (each segment's
  // instants ascend with k, so the cut is a plain break).
  std::vector<Microseconds>& candidates = fr.candidates;
  candidates.clear();
  for (const Segment& s : segments) {
    for (int k = 1;; ++k) {
      const Microseconds t = k * s.period - s.a;
      if (t > busy + kEpsilon || envelope - t <= response_at_zero) break;
      if (t >= 0.0) candidates.push_back(t);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // The sweep itself runs in the dispatched kernel (sweep.hpp): the scalar
  // ascending loop or the AVX2 branch-and-bound, bit-identical by
  // construction.
  cand_hist.observe(candidates.size());
  static obs::Counter& simd_sweeps =
      obs::registry().counter("trajectory.sweep.simd");
  static obs::Counter& scalar_sweeps =
      obs::registry().counter("trajectory.sweep.scalar");
  static obs::Counter& evaluations =
      obs::registry().counter("trajectory.sweep.evaluations");
  const sweep::Kind kind = sweep::active();
  (kind == sweep::Kind::kSimd ? simd_sweeps : scalar_sweeps).add();
  const sweep::Columns cols{flat_a,   flat_c, flat_period, node_begin,
                            node_cap, m,      own.a,       own.c,
                            own.period};
  const sweep::Outcome swept =
      sweep::run(kind, cols, candidates.data(), candidates.size(), consts,
                 w_max, response_at_zero);
  evaluations.add(swept.evaluations);
  const Microseconds best = swept.best;

  // The bound can never beat the jitter-free store-and-forward traversal.
  Microseconds floor_bound = c_last;
  for (std::size_t idx = 0; idx + 1 < m; ++idx) floor_bound += c_of(i, sub[idx]);
  floor_bound += latency_sum;
  return std::max(best, floor_bound);
}

Microseconds Analyzer::path_bound(PathRef ref) {
  const VlPath& p = cfg_.path(ref);
  return bound_to_link(p.vl, p.links.back());
}

Result Analyzer::analyze() {
  Result result;
  result.path_bounds.reserve(cfg_.all_paths().size());
  for (const VlPath& p : cfg_.all_paths()) {
    result.path_bounds.push_back(bound_to_link(p.vl, p.links.back()));
  }
  return result;
}

Result analyze(const TrafficConfig& config, const Options& options) {
  Analyzer analyzer(config, options);
  return analyzer.analyze();
}

}  // namespace afdx::trajectory
