#include "sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace afdx::sim {

namespace {

/// A frame instance travelling through the network (one copy per link; the
/// copy is duplicated at multicast forks).
struct Frame {
  VlId vl = kInvalidVl;
  Microseconds generated = 0.0;
  Bits size = 0.0;
};

struct Event {
  Microseconds time = 0.0;
  std::uint64_t seq = 0;  // tie-break, keeps the simulation deterministic
  enum class Kind { kArrival, kTxComplete } kind = Kind::kArrival;
  LinkId port = kInvalidLink;
  Frame frame;

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct PortState {
  /// One FIFO queue per static-priority class (0 = highest). Plain AFDX
  /// FIFO ports are the single-class case.
  std::map<std::uint8_t, std::deque<Frame>> queues;
  bool busy = false;
  Frame in_service;
  Bits backlog = 0.0;  // queued + in-service bits

  [[nodiscard]] std::deque<Frame>* next_queue() {
    for (auto& [level, q] : queues) {
      if (!q.empty()) return &q;
    }
    return nullptr;
  }
};

}  // namespace

Microseconds Result::max_delay_for(const TrafficConfig& config,
                                   PathRef ref) const {
  return max_path_delay[config.path_index(ref)];
}

Result simulate(const TrafficConfig& config, const Options& options) {
  const Network& net = config.network();
  AFDX_REQUIRE(options.horizon > 0.0, "simulate: horizon must be positive");
  AFDX_REQUIRE(options.phasing != Phasing::kExplicit ||
                   options.offsets.size() == config.vl_count(),
               "simulate: explicit phasing needs one offset per VL");

  Rng rng(options.seed);
  std::vector<Microseconds> offsets(config.vl_count(), 0.0);
  for (VlId v = 0; v < config.vl_count(); ++v) {
    switch (options.phasing) {
      case Phasing::kAligned:
        offsets[v] = 0.0;
        break;
      case Phasing::kRandom:
        offsets[v] = rng.uniform_real(0.0, config.vl(v).bag);
        break;
      case Phasing::kExplicit:
        offsets[v] = options.offsets[v];
        AFDX_REQUIRE(offsets[v] >= 0.0, "simulate: negative offset");
        break;
    }
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;

  // Generate the whole emission schedule up front (sporadic sources at their
  // worst: exactly one frame per BAG).
  for (VlId v = 0; v < config.vl_count(); ++v) {
    const VirtualLink& vl = config.vl(v);
    const LinkId first = config.route(v).crossed_links().front();
    for (Microseconds t = offsets[v]; t < options.horizon; t += vl.bag) {
      Frame f;
      f.vl = v;
      // Source release jitter: the frame nominally due at t may be enqueued
      // anywhere up to max_release_jitter later; delays are measured from
      // the actual release.
      const Microseconds release =
          vl.max_release_jitter > 0.0
              ? t + rng.uniform_real(0.0, vl.max_release_jitter)
              : t;
      f.generated = release;
      f.size = options.randomize_sizes
                   ? bits_from_bytes(static_cast<double>(rng.uniform_int(
                         vl.s_min, vl.s_max)))
                   : vl.burst_bits();
      // Entering the source port's queue also pays that port's latency
      // (zero for standard end-system ports).
      events.push(Event{release + net.link(first).latency, seq++,
                        Event::Kind::kArrival, first, f});
    }
  }

  std::vector<PortState> ports(net.link_count());
  Result result;
  result.max_path_delay.assign(config.all_paths().size(), 0.0);
  result.mean_path_delay.assign(config.all_paths().size(), 0.0);
  result.max_port_backlog.assign(net.link_count(), 0.0);
  std::vector<std::uint64_t> delivered_per_path(config.all_paths().size(), 0);

  // Path lookup: (vl, final link) -> path index.
  std::vector<std::vector<std::pair<LinkId, std::size_t>>> final_links(
      config.vl_count());
  for (std::size_t p = 0; p < config.all_paths().size(); ++p) {
    const VlPath& path = config.all_paths()[p];
    final_links[path.vl].push_back({path.links.back(), p});
  }

  auto start_transmission = [&](LinkId port, Microseconds now) {
    PortState& ps = ports[port];
    if (ps.busy) return;
    std::deque<Frame>* queue = ps.next_queue();
    if (queue == nullptr) return;
    ps.busy = true;
    ps.in_service = queue->front();
    queue->pop_front();
    const Microseconds done = now + ps.in_service.size / net.link(port).rate;
    events.push(Event{done, seq++, Event::Kind::kTxComplete, port,
                      ps.in_service});
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    PortState& ps = ports[ev.port];

    if (ev.kind == Event::Kind::kArrival) {
      ps.queues[config.vl(ev.frame.vl).priority].push_back(ev.frame);
      ps.backlog += ev.frame.size;
      result.max_port_backlog[ev.port] =
          std::max(result.max_port_backlog[ev.port], ps.backlog);
      start_transmission(ev.port, ev.time);
      continue;
    }

    // Transmission complete on ev.port.
    AFDX_ASSERT(ps.busy, "tx-complete on idle port");
    const Frame frame = ps.in_service;
    ps.backlog -= frame.size;
    ps.busy = false;

    const VlRoute& route = config.route(frame.vl);
    // Forward the frame on every successor link of the VL tree.
    for (LinkId next : route.crossed_links()) {
      if (route.predecessor(next) == ev.port) {
        events.push(Event{ev.time + net.link(next).latency, seq++,
                          Event::Kind::kArrival, next, frame});
      }
    }
    // Delivery when this link ends at a destination end system.
    if (net.is_end_system(net.link(ev.port).dest)) {
      for (const auto& [final_link, path_idx] : final_links[frame.vl]) {
        if (final_link == ev.port) {
          const Microseconds delay = ev.time - frame.generated;
          result.max_path_delay[path_idx] =
              std::max(result.max_path_delay[path_idx], delay);
          result.mean_path_delay[path_idx] += delay;
          ++delivered_per_path[path_idx];
          ++result.frames_delivered;
        }
      }
    }
    start_transmission(ev.port, ev.time);
  }

  for (std::size_t p = 0; p < delivered_per_path.size(); ++p) {
    if (delivered_per_path[p] > 0) {
      result.mean_path_delay[p] /= static_cast<double>(delivered_per_path[p]);
    }
  }
  return result;
}

std::vector<Microseconds> adversarial_offsets(const TrafficConfig& config,
                                              PathRef target) {
  const Network& net = config.network();
  const VlPath& path = config.path(target);

  // Contention-free arrival time of a VL's frame at the queue of `link`,
  // assuming emission at offset 0 and maximum-size frames.
  auto free_arrival = [&](VlId v, LinkId link) {
    const VlRoute& route = config.route(v);
    Microseconds acc = 0.0;
    LinkId cur = link;
    for (LinkId pred = route.predecessor(cur); pred != kInvalidLink;
         pred = route.predecessor(cur)) {
      acc += config.vl(v).max_transmission_time(net.link(pred).rate);
      acc += net.link(cur).latency;
      cur = pred;
    }
    return acc;
  };

  std::vector<Microseconds> offsets(config.vl_count(), 0.0);
  // Give the target a headstart of one max BAG so interferers with longer
  // approach paths can still synchronize on it.
  Microseconds headstart = 0.0;
  for (VlId v = 0; v < config.vl_count(); ++v) {
    headstart = std::max(headstart, config.vl(v).bag);
  }
  offsets[target.vl] = headstart;

  for (VlId v = 0; v < config.vl_count(); ++v) {
    if (v == target.vl) continue;
    // First node of the target's path the interferer shares.
    for (LinkId l : path.links) {
      if (!config.route(v).crosses(l)) continue;
      const Microseconds target_arrival =
          headstart + free_arrival(target.vl, l);
      const Microseconds own = free_arrival(v, l);
      // Arrive just before the target: at exact ties the FIFO event order
      // could favour the target, hiding the interference.
      offsets[v] = std::max(0.0, target_arrival - own - 1e-3);
      break;
    }
  }
  return offsets;
}

std::vector<Options> soundness_schedules(const TrafficConfig& config,
                                         const ScheduleSuiteOptions& suite) {
  std::vector<Options> schedules;
  schedules.push_back({});  // aligned
  for (int s = 1; s <= suite.random_schedules; ++s) {
    Options o;
    o.phasing = Phasing::kRandom;
    o.seed = suite.seed + static_cast<std::uint64_t>(s);
    schedules.push_back(o);
  }
  if (suite.adversarial_stride > 0) {
    const auto& paths = config.all_paths();
    for (std::size_t p = 0; p < paths.size(); p += suite.adversarial_stride) {
      Options o;
      o.phasing = Phasing::kExplicit;
      o.offsets = adversarial_offsets(
          config, PathRef{paths[p].vl, paths[p].dest_index});
      schedules.push_back(o);
    }
  }
  if (suite.horizon > 0.0) {
    for (Options& o : schedules) o.horizon = suite.horizon;
  }
  return schedules;
}

}  // namespace afdx::sim
