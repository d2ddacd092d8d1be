#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/counters.hpp"
#include "vl/traffic_config.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::optional<double> Metrics::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

int SpanLog::begin(const std::string& name, std::uint64_t op, int parent) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ms = ms_between(epoch_, Clock::now());
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms =
      ms_between(epoch_, Clock::now());
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":" << json_string(s.name) << ",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_ms\":"
        << fmt_double(s.start_ms) << ",\"end_ms\":" << fmt_double(s.end_ms)
        << "}\n";
  }
}

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  for (const auto& c : afdx::obs::registry().counters()) {
    snap.counters[c.name] = c.value;
  }
  for (const auto& h : afdx::obs::registry().histograms()) {
    snap.histograms[h.name] = Hist{h.count, h.sum, h.max};
  }
  return snap;
}

std::uint64_t RegistrySnapshot::delta(const RegistrySnapshot& earlier,
                                      const std::string& name) const {
  const auto now = counters.find(name);
  if (now == counters.end()) return 0;
  const auto before = earlier.counters.find(name);
  return now->second -
         (before == earlier.counters.end() ? 0 : before->second);
}

double RegistrySnapshot::hist_mean_since(const RegistrySnapshot& earlier,
                                         const std::string& name) const {
  const auto now = histograms.find(name);
  if (now == histograms.end()) return 0.0;
  Hist before;
  if (const auto it = earlier.histograms.find(name);
      it != earlier.histograms.end()) {
    before = it->second;
  }
  const std::uint64_t n = now->second.count - before.count;
  return n == 0 ? 0.0
                : static_cast<double>(now->second.sum - before.sum) /
                      static_cast<double>(n);
}

double time_index_ms(const afdx::TrafficConfig& cfg) {
  afdx::Network net = cfg.network();
  std::vector<afdx::VirtualLink> vls;
  std::vector<std::vector<std::vector<afdx::LinkId>>> routes;
  vls.reserve(cfg.vl_count());
  routes.reserve(cfg.vl_count());
  for (afdx::VlId v = 0; v < cfg.vl_count(); ++v) {
    vls.push_back(cfg.vl(v));
    routes.push_back(cfg.route(v).paths());
  }
  const auto t0 = Clock::now();
  const afdx::TrafficConfig rebuilt(std::move(net), std::move(vls),
                              std::move(routes));
  const double ms = ms_between(t0, Clock::now());
  if (rebuilt.all_paths().size() != cfg.all_paths().size()) {
    std::fprintf(stderr, "perfbench: re-indexed configuration differs\n");
  }
  return ms;
}

void set_engine_layers(const std::vector<afdx::engine::RunMetrics>& runs,
                       const std::vector<RegistrySnapshot>& counters,
                       Metrics& m) {
  std::vector<double> nc, tj, par, eff, steals, port_hit, memo, ports,
      prefixes, seg_mean, seg_max, cand, rounds, simd;
  const RegistrySnapshot zero;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const afdx::engine::RunMetrics& rm = runs[i];
    const RegistrySnapshot& c = counters[i];
    nc.push_back(rm.netcalc_wall_us / 1000.0);
    tj.push_back(rm.trajectory_wall_us / 1000.0);
    const double p =
        rm.total_wall_us > 0.0 ? rm.total_cpu_us / rm.total_wall_us : 0.0;
    par.push_back(p);
    eff.push_back(p / static_cast<double>(std::max(1, rm.threads)));
    steals.push_back(static_cast<double>(rm.steals));
    port_hit.push_back(rm.cache_run.hit_rate());
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (const afdx::engine::ShardMetrics& sh : rm.shards) {
      lookups += sh.lookups;
      hits += sh.local_hits + sh.shared_hits;
    }
    memo.push_back(lookups == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(lookups));
    ports.push_back(
        static_cast<double>(c.delta(zero, "netcalc.ports_computed")));
    prefixes.push_back(
        static_cast<double>(c.delta(zero, "trajectory.prefixes")));
    seg_mean.push_back(
        c.hist_mean_since(zero, "trajectory.segments_per_prefix"));
    const auto seg = c.histograms.find("trajectory.segments_per_prefix");
    seg_max.push_back(seg == c.histograms.end()
                          ? 0.0
                          : static_cast<double>(seg->second.max));
    cand.push_back(
        c.hist_mean_since(zero, "trajectory.candidates_per_prefix"));
    rounds.push_back(c.hist_mean_since(zero, "trajectory.busy_rounds"));
    const double n_simd =
        static_cast<double>(c.delta(zero, "trajectory.sweep.simd"));
    const double n_scalar =
        static_cast<double>(c.delta(zero, "trajectory.sweep.scalar"));
    simd.push_back(n_simd + n_scalar > 0.0 ? n_simd / (n_simd + n_scalar)
                                           : 0.0);
  }
  m.set("netcalc.ms", median(nc), "ms");
  m.set("netcalc.ports_computed", median(ports), "count");
  m.set("trajectory.ms", median(tj), "ms");
  m.set("trajectory.prefixes", median(prefixes), "count");
  m.set("trajectory.segments_per_prefix.mean", median(seg_mean), "count");
  m.set("trajectory.segments_per_prefix.max", median(seg_max), "count");
  m.set("trajectory.candidates_per_prefix.mean", median(cand), "count");
  m.set("trajectory.busy_rounds.mean", median(rounds), "count");
  m.set("trajectory.memo_hit_rate", median(memo), "share");
  m.set("trajectory.sweep_simd_share", median(simd), "share");
  m.set("engine.parallelism", median(par), "x");
  m.set("engine.efficiency", median(eff), "share");
  m.set("engine.steals", median(steals), "count");
  m.set("engine.port_cache.hit_rate", median(port_hit), "share");
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string Fingerprint::to_json() const {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
      << ",\"cpu\":" << json_string(cpu_model())
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"engine_threads\":" << engine_threads
      << ",\"server_workers\":" << server_workers << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, n] : samples) {
    out << (first ? "" : ",") << json_string(name) << ":" << fmt_double(n);
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [name, text] : notes) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_string(text);
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
