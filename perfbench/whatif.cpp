// whatif-mix: the afdx_serve daemon with one warm baseline, served
// in-process by serve::Server::listen_and_serve on an ephemeral loopback
// port (2 workers, request_threads = 1) and driven over one TCP
// connection.
//
//   phase 1, open loop:   Poisson arrivals at 30 req/s; every request is
//                         timed from when it was due to be sent;
//   phase 2, closed loop: a window of 4 outstanding requests; completed
//                         requests per second.
//
// Mix: 55% single-VL whatif on "local" VLs (the 15% with the smallest dirty
// cone), 20% whatif on "backbone" VLs (the 10% with the widest cone), 25%
// bounds reads of one VL. What-ifs alternate bag_us:1000 and
// s_max_bytes:1518.
//
// The correctness gate re-runs a seeded sample of what-ifs cold with
// AnalysisEngine(materialized overlay).run_resilient() and checks every
// bounds read against a cold run of the baseline configuration.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/units.hpp"
#include "engine/engine.hpp"
#include "engine/incremental.hpp"
#include "engine/session.hpp"
#include "gen/industrial.hpp"
#include "json.hpp"
#include "obs/counters.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "vl/traffic_config.hpp"

namespace perfbench {
namespace {

using afdx::TrafficConfig;
namespace engine = afdx::engine;
namespace serve = afdx::serve;

constexpr double kOpenLoopRate = 30.0;  // requests per second
constexpr int kClosedWindow = 4;
/// Open-loop validity limits: the generator's p99 lateness, and how much
/// the mean number of unanswered requests may grow from the first third
/// of the phase to the last.
constexpr double kMaxLateP99Ms = 25.0;
constexpr double kMaxBacklogGrowth = 2.0;
/// A request unanswered this long after the phase ends counts as timed out.
constexpr double kResponseTimeoutS = 10.0;

enum class Kind : std::uint8_t { kLocal, kBackbone, kBounds };

struct Request {
  std::uint64_t id = 0;
  Kind kind = Kind::kLocal;
  std::string vl;
  bool bag = true;  ///< whatif: bag_us:1000, else s_max_bytes:1518
  std::string line;
  bool open_loop = true;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point received{};
  bool answered = false;
  std::string response;

  [[nodiscard]] bool whatif() const { return kind != Kind::kBounds; }
  [[nodiscard]] double latency_ms() const { return ms_between(due, received); }
};

std::string request_line(const Request& r) {
  const std::string id = "{\"id\":" + std::to_string(r.id);
  if (!r.whatif()) {
    return id + ",\"op\":\"bounds\",\"vl\":" + json_string(r.vl) + "}";
  }
  return id + ",\"op\":\"whatif\",\"set\":[{\"vl\":" + json_string(r.vl) +
         (r.bag ? ",\"bag_us\":1000}]}" : ",\"s_max_bytes\":1518}]}");
}

/// Generator seed of the served network. The network is the fixed system
/// under test (as an aircraft's configuration is); the run seed draws the
/// request stream. Between generator seeds the what-if cost of a 1000-VL
/// network varies by up to 2x, which would swamp every latency bound.
constexpr std::uint64_t kNetworkSeed = 7;

afdx::gen::IndustrialOptions config_options(const RunSettings& s) {
  // The serve_throughput shape: paper-scale traffic over a whole-aircraft
  // backbone, mostly unicast, so cones range from switch-local to
  // trunk-wide.
  afdx::gen::IndustrialOptions o;
  o.seed = kNetworkSeed;
  o.switch_count = s.tiny ? 8 : 24;
  o.end_system_count = s.tiny ? 40 : 180;
  o.vl_count = s.tiny ? 150 : 1000;
  o.multicast_fraction = 0.1;
  o.max_multicast_fanout = 2;
  return o;
}

/// Paths dirtied by a parameter edit of each VL: its crossed ports closed
/// downstream along the propagation edges (a VL crossing a dirty port
/// carries the dirt to its next hop) -- the closure plan_incremental
/// computes, recomputed here independently.
std::vector<std::size_t> cone_paths(const TrafficConfig& cfg) {
  const std::size_t n_links = cfg.network().link_count();
  std::vector<std::vector<afdx::LinkId>> successors(n_links);
  for (afdx::LinkId port = 0; port < n_links; ++port) {
    for (const afdx::VlId v : cfg.vls_on_link(port)) {
      const afdx::LinkId pred = cfg.route(v).predecessor(port);
      if (pred != afdx::kInvalidLink) successors[pred].push_back(port);
    }
  }
  std::vector<std::size_t> cone(cfg.vl_count(), 0);
  std::vector<char> dirty(n_links, 0);
  std::vector<afdx::LinkId> stack;
  for (afdx::VlId v = 0; v < cfg.vl_count(); ++v) {
    std::fill(dirty.begin(), dirty.end(), 0);
    stack.assign(cfg.route(v).crossed_links().begin(),
                 cfg.route(v).crossed_links().end());
    for (const afdx::LinkId l : stack) dirty[l] = 1;
    while (!stack.empty()) {
      const afdx::LinkId p = stack.back();
      stack.pop_back();
      for (const afdx::LinkId s : successors[p]) {
        if (dirty[s] == 0) {
          dirty[s] = 1;
          stack.push_back(s);
        }
      }
    }
    for (const afdx::VlPath& path : cfg.all_paths()) {
      if (std::any_of(path.links.begin(), path.links.end(),
                      [&](afdx::LinkId l) { return dirty[l] != 0; })) {
        ++cone[v];
      }
    }
  }
  return cone;
}

/// One loopback connection to the server: a writer guarded by a mutex and a
/// reader thread that matches responses to requests by id.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    stop();
    ::close(fd_);
  }

  /// Shuts the connection down and joins the reader.
  void stop() {
    if (reader_.joinable()) {
      ::shutdown(fd_, SHUT_RDWR);
      reader_.join();
    }
  }

  /// Starts the reader; `on_line` runs on the reader thread per response.
  void start(std::function<void(std::string)> on_line) {
    on_line_ = std::move(on_line);
    reader_ = std::thread([this] { read_loop(); });
  }

  void send(const std::string& line) {
    const std::string framed = line + "\n";
    const std::lock_guard<std::mutex> lock(write_mu_);
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("send() to the server failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  void read_loop() {
    std::string buffer;
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        if (buffer[i] != '\n') continue;
        on_line_(buffer.substr(start, i - start));
        start = i + 1;
      }
      buffer.erase(0, start);
    }
  }

  int fd_ = -1;
  std::mutex write_mu_;
  std::function<void(std::string)> on_line_;
  std::thread reader_;
};

/// The request id at the start of a response line ({"id":N,...}).
std::uint64_t response_id(const std::string& line) {
  const auto pos = line.find("\"id\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + 5, nullptr, 10);
}

/// Draws from a list without replacement and reshuffles (seeded) whenever
/// it runs out, so every run weighs the items evenly and runs with other
/// seeds differ in order, not in mix.
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> items, std::uint64_t seed)
      : items_(std::move(items)), rng_(seed) {}
  const T& draw() {
    if (next_ == 0) {
      for (std::size_t i = items_.size() - 1; i > 0; --i) {
        std::swap(items_[i], items_[rng_.below(i + 1)]);
      }
    }
    const T& item = items_[next_];
    next_ = (next_ + 1) % items_.size();
    return item;
  }

 private:
  std::vector<T> items_;
  Rng rng_;
  std::size_t next_ = 0;
};

/// Layer times of one request replayed in-process (traced run).
struct ReplaySample {
  bool whatif = false;
  double parse_us = 0.0;
  double materialize_ms = 0.0;
  double plan_ms = 0.0;
  double analyze_ms = 0.0;
  double handle_ms = 0.0;
  engine::RunMetrics metrics;
  RegistrySnapshot counters;  ///< registry after the analyze call alone
};

class WhatifRun {
 public:
  WhatifRun(const RunSettings& settings, RunOutcome& out)
      : s_(settings), out_(out), rng_(settings.seed ^ 0xa11ce5ULL) {}
  WhatifRun(const WhatifRun&) = delete;
  WhatifRun& operator=(const WhatifRun&) = delete;
  ~WhatifRun() { stop_server(); }

  void run();

 private:
  void set_up();
  void stop_server();
  /// Appends the next request of the seeded mix. Requires mu_.
  Request& make_request(bool open_loop);
  void on_response(std::string line);
  void open_loop_phase(double seconds);
  double closed_loop_phase(double seconds);
  std::size_t wait_for_answers();
  void gate();
  std::vector<ReplaySample> replay(const std::vector<std::size_t>& picks,
                                   SpanLog* log, double& total_ms);
  void layer_table(const RegistrySnapshot& open_counters);

  const RunSettings& s_;
  RunOutcome& out_;
  Rng rng_;
  std::shared_ptr<const engine::BaselineState> base_;
  std::unique_ptr<serve::Service> service_;
  std::unique_ptr<serve::Server> server_;
  std::thread server_thread_;
  std::atomic<bool> server_done_{false};
  std::unique_ptr<Client> client_;
  // The request mix: 11 local what-ifs, 4 backbone what-ifs and 5 bounds
  // reads in every 20 requests, each class cycling through its VLs.
  std::optional<Deck<Kind>> kinds_;
  std::optional<Deck<std::string>> local_;
  std::optional<Deck<std::string>> backbone_;
  std::optional<Deck<std::string>> all_vls_;
  std::size_t whatifs_made_ = 0;
  double setup_s_ = 0.0;
  double gen_ms_ = 0.0;
  SpanLog log_;

  std::mutex mu_;  // guards everything below once the reader runs
  std::condition_variable cv_;
  std::vector<Request> requests_;  ///< by id - 1
  std::size_t answered_ = 0;
  std::size_t open_sent_ = 0;
  std::size_t stray_responses_ = 0;
  std::vector<double> late_ms_;
  std::vector<double> outstanding_at_send_;
  bool closed_active_ = false;
  Clock::time_point closed_deadline_{};
  std::string send_error_;
  std::string server_error_;
};

void WhatifRun::set_up() {
  // Baseline build repeated and its median reported (see batch.cpp);
  // binding the server and connecting are paid once and added.
  std::vector<double> reps;
  std::vector<double> gen;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    auto cfg = std::make_shared<const TrafficConfig>(
        afdx::gen::industrial_config(config_options(s_)));
    gen.push_back(ms_between(t0, Clock::now()));
    base_ = engine::BaselineState::build(cfg, {}, {}, kEngineThreads);
    reps.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  gen_ms_ = median(gen);

  const auto t0 = Clock::now();
  serve::ServiceOptions so;
  so.request_threads = 1;
  service_ = std::make_unique<serve::Service>(so);
  service_->add_baseline("main", base_);
  serve::ServerOptions srv;
  srv.workers = kServerWorkers;
  server_ = std::make_unique<serve::Server>(*service_, srv);
  server_thread_ = std::thread([this] {
    try {
      server_->listen_and_serve(0);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu_);
      server_error_ = e.what();
    }
    server_done_ = true;
  });
  while (server_->bound_port() == 0) {
    if (server_done_) {
      const std::lock_guard<std::mutex> lock(mu_);
      throw std::runtime_error("server did not start: " + server_error_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  client_ = std::make_unique<Client>(server_->bound_port());
  client_->start([this](std::string line) { on_response(std::move(line)); });
  const double bind_s = std::chrono::duration<double>(Clock::now() - t0).count();
  setup_s_ = median(reps) + bind_s;
  out_.fingerprint.samples["setup_build_s"] = median(reps);
  out_.fingerprint.samples["setup_bind_s"] = bind_s;

  // Request classes from the bench's own cone computation (the bench's
  // work, not the program's, so outside the set-up time).
  const TrafficConfig& cfg = base_->config();
  const std::vector<std::size_t> cone = cone_paths(cfg);
  std::vector<afdx::VlId> ids(cfg.vl_count());
  for (afdx::VlId v = 0; v < cfg.vl_count(); ++v) ids[v] = v;
  std::stable_sort(ids.begin(), ids.end(), [&](afdx::VlId a, afdx::VlId b) {
    return cone[a] < cone[b];
  });
  const std::size_t n_local = std::max<std::size_t>(1, ids.size() * 15 / 100);
  const std::size_t n_back = std::max<std::size_t>(1, ids.size() * 10 / 100);
  std::vector<std::string> local;
  std::vector<std::string> backbone;
  std::vector<std::string> all;
  for (std::size_t i = 0; i < n_local; ++i) local.push_back(cfg.vl(ids[i]).name);
  for (std::size_t i = ids.size() - n_back; i < ids.size(); ++i) {
    backbone.push_back(cfg.vl(ids[i]).name);
  }
  for (afdx::VlId v = 0; v < cfg.vl_count(); ++v) all.push_back(cfg.vl(v).name);
  std::vector<Kind> kinds(11, Kind::kLocal);
  kinds.insert(kinds.end(), 4, Kind::kBackbone);
  kinds.insert(kinds.end(), 5, Kind::kBounds);
  kinds_.emplace(std::move(kinds), s_.seed ^ 0x1ULL);
  local_.emplace(std::move(local), s_.seed ^ 0x2ULL);
  backbone_.emplace(std::move(backbone), s_.seed ^ 0x3ULL);
  all_vls_.emplace(std::move(all), s_.seed ^ 0x4ULL);
}

void WhatifRun::stop_server() {
  if (!server_thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_active_ = false;
  }
  server_->request_stop();
  server_thread_.join();
  // Join the reader before the client goes away: on_response uses client_.
  if (client_) client_->stop();
  client_.reset();
}

Request& WhatifRun::make_request(bool open_loop) {
  Request r;
  r.id = requests_.size() + 1;
  r.open_loop = open_loop;
  r.kind = kinds_->draw();
  r.vl = r.kind == Kind::kLocal      ? local_->draw()
         : r.kind == Kind::kBackbone ? backbone_->draw()
                                     : all_vls_->draw();
  if (r.whatif()) r.bag = whatifs_made_++ % 2 == 0;
  r.line = request_line(r);
  requests_.push_back(std::move(r));
  return requests_.back();
}

void WhatifRun::on_response(std::string line) {
  std::string next_line;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto now = Clock::now();
    const std::uint64_t id = response_id(line);
    if (id == 0 || id > requests_.size() || requests_[id - 1].answered) {
      ++stray_responses_;
      cv_.notify_all();
      return;
    }
    Request& r = requests_[id - 1];
    r.received = now;
    r.answered = true;
    r.response = std::move(line);
    ++answered_;
    // Closed loop: every answer releases the next request of the window.
    if (!r.open_loop && closed_active_ && now < closed_deadline_) {
      Request& next = make_request(false);
      next.due = next.sent = Clock::now();
      next_line = next.line;
    }
    cv_.notify_all();
  }
  if (!next_line.empty()) {
    try {
      client_->send(next_line);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu_);
      send_error_ = e.what();
    }
  }
}

void WhatifRun::open_loop_phase(double seconds) {
  // The whole schedule is drawn from the seed before the first send:
  // exponential gaps at the target rate, independent of the server's pace.
  std::vector<std::pair<std::size_t, std::string>> plan;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng_.uniform()) / kOpenLoopRate;
      if (t >= seconds) break;
      Request& r = make_request(true);
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t));
      plan.emplace_back(r.id - 1, r.line);
    }
  }
  for (const auto& [index, line] : plan) {
    Clock::time_point due;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      due = requests_[index].due;
    }
    std::this_thread::sleep_until(due);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Request& r = requests_[index];
      r.sent = Clock::now();
      late_ms_.push_back(ms_between(r.due, r.sent));
      outstanding_at_send_.push_back(static_cast<double>(open_sent_) -
                                     static_cast<double>(answered_));
      ++open_sent_;
    }
    client_->send(line);
  }
}

double WhatifRun::closed_loop_phase(double seconds) {
  std::vector<std::string> lines;
  Clock::time_point start;
  Clock::time_point deadline;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    closed_deadline_ = deadline;
    closed_active_ = true;
    for (int i = 0; i < kClosedWindow; ++i) {
      Request& r = make_request(false);
      r.due = r.sent = start;
      lines.push_back(r.line);
    }
  }
  for (const std::string& line : lines) client_->send(line);
  std::this_thread::sleep_until(deadline);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_active_ = false;
  }
  wait_for_answers();
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t completed = 0;
  for (const Request& r : requests_) {
    if (!r.open_loop && r.answered && r.received <= deadline) ++completed;
  }
  return static_cast<double>(completed) / seconds;
}

std::size_t WhatifRun::wait_for_answers() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(kResponseTimeoutS),
               [this] { return answered_ == requests_.size(); });
  return requests_.size() - answered_;
}

/// Bit-for-bit equality of a bound printed by the daemon and a reference.
bool same_bits(std::optional<double> printed, double reference) {
  if (!std::isfinite(reference)) return !printed.has_value();
  return printed.has_value() && std::bit_cast<std::uint64_t>(*printed) ==
                                    std::bit_cast<std::uint64_t>(reference);
}

void WhatifRun::gate() {
  const TrafficConfig& cfg = base_->config();
  std::map<std::pair<std::string, std::string>, std::size_t> path_of;
  std::map<std::string, std::size_t> paths_of_vl;
  for (std::size_t p = 0; p < cfg.all_paths().size(); ++p) {
    const afdx::VlPath& path = cfg.all_paths()[p];
    const afdx::VirtualLink& vl = cfg.vl(path.vl);
    path_of[{vl.name,
             cfg.network().node(vl.destinations[path.dest_index]).name}] = p;
    ++paths_of_vl[vl.name];
  }
  // Independent reference of every bounds read: a cold full run of the
  // baseline configuration on a fresh engine.
  engine::AnalysisEngine cold(cfg, engine::Options{kEngineThreads});
  engine::RunResult ref = cold.run_resilient();
  bool perturb = s_.perturb_reference;

  std::size_t failed = 0;
  std::vector<std::size_t> whatifs;
  const auto mismatch = [&](const Request& r, const std::string& what) {
    if (out_.gate_messages.size() < 5) {
      out_.gate_messages.push_back("request " + std::to_string(r.id) + " (" +
                                   r.line + "): " + what);
    }
  };
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    if (!r.answered) {
      ++failed;  // timed out
      continue;
    }
    const std::optional<json::Value> doc = json::parse(r.response);
    if (!doc || !doc->flag("ok")) {
      ++failed;  // ok:false, overloaded or unreadable
      continue;
    }
    if (r.whatif()) {
      whatifs.push_back(i);
      continue;
    }
    const json::Value* rows = doc->get("paths");
    bool good = rows != nullptr &&
                doc->number("total") ==
                    static_cast<double>(paths_of_vl[r.vl]) &&
                rows->items.size() == paths_of_vl[r.vl];
    if (rows != nullptr) {
      for (const json::Value& row : rows->items) {
        const auto it = path_of.find({row.string("vl"), row.string("dest")});
        if (it == path_of.end()) {
          good = false;
          continue;
        }
        const std::size_t p = it->second;
        double ref_comb = ref.combined[p];
        if (perturb) {
          ref_comb = std::nextafter(ref_comb, INFINITY);
          perturb = false;
        }
        good = good && same_bits(row.number("netcalc_us"), ref.netcalc[p]) &&
               same_bits(row.number("trajectory_us"), ref.trajectory[p]) &&
               same_bits(row.number("combined_us"), ref_comb);
      }
    }
    if (!good) {
      ++failed;
      mismatch(r, "bounds differ from a cold run of the baseline");
    }
  }

  // A seeded sample of what-ifs, re-run cold on the materialized overlay.
  const std::size_t want = std::min<std::size_t>(s_.tiny ? 6 : 24,
                                                 whatifs.size());
  Rng pick(s_.seed ^ 0x9a7eULL);
  std::vector<std::size_t> sample;
  while (sample.size() < want) {
    const std::size_t i = whatifs[pick.below(whatifs.size())];
    if (std::find(sample.begin(), sample.end(), i) == sample.end()) {
      sample.push_back(i);
    }
  }
  for (const std::size_t i : sample) {
    const Request& r = requests_[i];
    engine::OverlaySession session(base_, 1);
    if (r.bag) {
      session.override_bag(r.vl, 1000.0);
    } else {
      session.override_s_max(r.vl, 1518);
    }
    const TrafficConfig overlay = session.materialize();
    engine::AnalysisEngine eng(overlay, engine::Options{kEngineThreads});
    const engine::RunResult res = eng.run_resilient();
    std::size_t changed = 0;
    for (std::size_t p = 0; p < res.combined.size(); ++p) {
      if (!res.status[p].ok() ||
          !afdx::nearly_equal(res.combined[p], ref.combined[p])) {
        ++changed;
      }
    }
    const std::optional<json::Value> doc = json::parse(r.response);
    bool good = doc->number("paths_changed") == static_cast<double>(changed);
    if (const json::Value* rows = doc->get("changed"); rows != nullptr) {
      for (const json::Value& row : rows->items) {
        const auto it = path_of.find({row.string("vl"), row.string("dest")});
        good = good && it != path_of.end() &&
               same_bits(row.number("whatif_us"), res.combined[it->second]) &&
               same_bits(row.number("baseline_us"), ref.combined[it->second]);
      }
    } else {
      good = false;
    }
    if (!good) {
      ++failed;
      mismatch(r, "what-if differs from a cold run of its overlay (" +
                      std::to_string(changed) + " paths changed)");
    }
  }
  out_.attempted = requests_.size();
  out_.failed = failed;
  if (failed > 0 || stray_responses_ > 0 || !send_error_.empty()) {
    out_.correct = false;
  }
  if (stray_responses_ > 0) {
    out_.gate_messages.push_back(std::to_string(stray_responses_) +
                                 " responses matched no request");
  }
  if (!send_error_.empty()) out_.gate_messages.push_back(send_error_);
  out_.fingerprint.samples["gate_whatifs"] = static_cast<double>(want);
}

std::vector<ReplaySample> WhatifRun::replay(
    const std::vector<std::size_t>& picks, SpanLog* log, double& total_ms) {
  std::vector<ReplaySample> out;
  const auto span = [&](const char* name, std::uint64_t op, int parent) {
    return log != nullptr ? log->begin(name, op, parent) : -1;
  };
  const auto close = [&](int i) {
    if (log != nullptr) log->end(i);
  };
  const auto t_all = Clock::now();
  for (const std::size_t i : picks) {
    const Request& r = requests_[i];
    ReplaySample x;
    x.whatif = r.whatif();
    const int root = span("request", r.id, -1);

    int sp = span("serve.parse_request", r.id, root);
    auto t0 = Clock::now();
    const serve::Request req = serve::parse_request(r.line);
    x.parse_us = ms_between(t0, Clock::now()) * 1000.0;
    close(sp);

    if (x.whatif) {
      engine::OverlaySession session(base_, 1);
      for (const engine::VlOverride& o : req.set) session.override_vl(o);
      sp = span("session.materialize", r.id, root);
      t0 = Clock::now();
      const TrafficConfig overlay = session.materialize();
      x.materialize_ms = ms_between(t0, Clock::now());
      close(sp);

      sp = span("engine.plan_incremental", r.id, root);
      t0 = Clock::now();
      const engine::IncrementalPlan plan =
          engine::plan_incremental(base_->config(), overlay, {});
      x.plan_ms = ms_between(t0, Clock::now());
      close(sp);
      if (!plan.compatible) throw std::runtime_error("incompatible overlay");

      afdx::obs::registry().reset();
      sp = span("session.analyze", r.id, root);
      t0 = Clock::now();
      const engine::RunResult res = session.analyze();
      x.analyze_ms = ms_between(t0, Clock::now());
      close(sp);
      x.counters = RegistrySnapshot::take();
      x.metrics = res.metrics;
    }

    sp = span("serve.handle_line", r.id, root);
    t0 = Clock::now();
    const std::string response = service_->handle_line(r.line);
    x.handle_ms = ms_between(t0, Clock::now());
    close(sp);
    close(root);
    if (response.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("replayed request failed: " + response);
    }
    out.push_back(std::move(x));
  }
  total_ms = ms_between(t_all, Clock::now());
  return out;
}

void WhatifRun::layer_table(const RegistrySnapshot& open_counters) {
  Metrics& m = out_.metrics;
  const RegistrySnapshot zero;

  // Open-loop phase, as the daemon served it.
  std::vector<double> client_ms;
  std::vector<double> dirty_share;
  std::vector<double> transplanted_share;
  for (const Request& r : requests_) {
    if (!r.open_loop || !r.answered) continue;
    client_ms.push_back(ms_between(r.sent, r.received));
    if (!r.whatif()) continue;
    const std::optional<json::Value> doc = json::parse(r.response);
    const json::Value* inc = doc ? doc->get("incremental") : nullptr;
    if (inc == nullptr) continue;
    const double dirty = inc->number("dirty_ports").value_or(0.0);
    const double seeded = inc->number("seeded_ports").value_or(0.0);
    const double paths = doc->number("paths").value_or(0.0);
    if (dirty + seeded > 0.0) dirty_share.push_back(dirty / (dirty + seeded));
    if (paths > 0.0) {
      transplanted_share.push_back(
          inc->number("transplanted_paths").value_or(0.0) / paths);
    }
  }
  const double server_wall_ms =
      open_counters.hist_mean_since(zero, "serve.request_wall_us") / 1000.0;
  const double pfx_hits = static_cast<double>(
      open_counters.delta(zero, "trajectory.prefix_cache.hits"));
  const double pfx_misses = static_cast<double>(
      open_counters.delta(zero, "trajectory.prefix_cache.misses"));
  m.set("engine.dirty_port_share", mean(dirty_share), "share");
  m.set("engine.transplanted_path_share", mean(transplanted_share), "share");
  m.set("trajectory.prefix_cache.hit_rate",
        pfx_hits + pfx_misses > 0.0 ? pfx_hits / (pfx_hits + pfx_misses) : 0.0,
        "share");
  m.set("server.wait_ms", mean(client_ms) - server_wall_ms, "ms");
  m.set("serve.queue.max_depth",
        static_cast<double>(open_counters.delta(zero, "serve.queue.max_depth")),
        "count");
  m.set("serve.overloaded",
        static_cast<double>(open_counters.delta(zero, "serve.overloaded")),
        "count");

  // In-process replay of a seeded sample, untraced then traced on the same
  // requests: per-layer times and the tracing overhead.
  std::vector<std::size_t> picks;
  Rng pick(s_.seed ^ 0x7e91aULL);
  const std::size_t want = s_.tiny ? 8 : 40;
  for (std::size_t n = 0; n < 50 * want && picks.size() < want; ++n) {
    const std::size_t i = pick.below(requests_.size());
    if (requests_[i].open_loop &&
        std::find(picks.begin(), picks.end(), i) == picks.end()) {
      picks.push_back(i);
    }
  }
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  (void)replay(picks, nullptr, untraced_ms);
  const std::vector<ReplaySample> xs = replay(picks, &log_, traced_ms);

  std::vector<double> parse_us, handle, respond, mat, plan, analyze_self;
  std::vector<engine::RunMetrics> runs;
  std::vector<RegistrySnapshot> run_counters;
  for (const ReplaySample& x : xs) {
    parse_us.push_back(x.parse_us);
    handle.push_back(x.handle_ms);
    respond.push_back(x.handle_ms - x.parse_us / 1000.0 - x.analyze_ms);
    if (!x.whatif) continue;
    mat.push_back(x.materialize_ms);
    plan.push_back(x.plan_ms);
    // analyze() materializes and plans internally; its self time is what
    // remains after the separately timed calls of both.
    analyze_self.push_back(x.analyze_ms - x.materialize_ms - x.plan_ms);
    runs.push_back(x.metrics);
    run_counters.push_back(x.counters);
  }
  m.set("vl.index_ms", time_index_ms(base_->config()), "ms");
  m.set("gen.ms", gen_ms_ - m.get("vl.index_ms").value_or(0.0), "ms");
  set_engine_layers(runs, run_counters, m);
  m.set("session.materialize_ms", median(mat), "ms");
  m.set("engine.plan_ms", median(plan), "ms");
  m.set("session.analyze_ms", median(analyze_self), "ms");
  m.set("serve.parse_us", median(parse_us), "us");
  m.set("serve.handle_ms", median(handle), "ms");
  m.set("serve.respond_ms", median(respond), "ms");
  m.set("trace.overhead_pct",
        untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                          : 0.0,
        "%");
  out_.fingerprint.samples["replayed_requests"] =
      static_cast<double>(picks.size());
}

void WhatifRun::run() {
  out_.fingerprint.workload = s_.workload;
  out_.fingerprint.seed = s_.seed;
  out_.fingerprint.engine_threads = kEngineThreads;
  out_.fingerprint.server_workers = kServerWorkers;
  out_.fingerprint.notes["request_threads"] = "1";
  out_.fingerprint.notes["open_loop_rate_rps"] = fmt_double(kOpenLoopRate);
  out_.fingerprint.notes["closed_loop_window"] = std::to_string(kClosedWindow);

  set_up();
  const double open_s = 0.7 * s_.seconds;
  const double closed_s = s_.seconds - open_s;
  if (s_.trace) afdx::obs::registry().reset();
  open_loop_phase(open_s);
  wait_for_answers();
  const RegistrySnapshot open_counters = RegistrySnapshot::take();
  const double sat_rps = closed_loop_phase(closed_s);
  const double rss = peak_rss_mb();
  stop_server();

  // Open loop: latency from when the request was due. Closed loop: every
  // request waits for a worker behind the ones ahead of it.
  std::vector<double> whatif_ms;
  std::vector<double> open_reads_ms;
  std::vector<double> closed_whatif_ms;
  std::vector<double> closed_reads_ms;
  for (const Request& r : requests_) {
    if (!r.answered) continue;
    if (r.open_loop) {
      (r.whatif() ? whatif_ms : open_reads_ms).push_back(r.latency_ms());
    } else {
      (r.whatif() ? closed_whatif_ms : closed_reads_ms)
          .push_back(r.latency_ms());
    }
  }
  gate();
  // Open-loop validity: a late generator or a growing backlog means the
  // latencies describe the machine's stall, not the program.
  const double late_p99 = quantile(late_ms_, 0.99);
  const std::size_t third = outstanding_at_send_.size() / 3;
  double growth = 0.0;
  if (third > 0) {
    const std::vector<double> head(outstanding_at_send_.begin(),
                                   outstanding_at_send_.begin() + third);
    const std::vector<double> tail(outstanding_at_send_.end() - third,
                                   outstanding_at_send_.end());
    growth = mean(tail) - mean(head);
  }
  if (late_p99 > kMaxLateP99Ms) {
    out_.invalid = "open-loop generator ran late: p99 " +
                   fmt_double(late_p99) + " ms > " +
                   fmt_double(kMaxLateP99Ms) + " ms";
  } else if (growth > kMaxBacklogGrowth) {
    out_.invalid = "open-loop backlog grew by " + fmt_double(growth) +
                   " requests > " + fmt_double(kMaxBacklogGrowth);
  }

  // p95 keeps ~20 samples beyond it at 30 req/s over 21 s. The open-loop
  // median sits where the local and backbone latency ranges meet and
  // jumped between ~21 and ~27 ms from run to run; the closed-loop median
  // and the mean read wait are the steady measures of the same costs.
  const double whatif_tail = quantile(whatif_ms, 0.95);
  Metrics& m = out_.metrics;
  m.set("setup_s", setup_s_, "s");
  m.set("op_p50_ms", median(closed_whatif_ms), "ms");
  m.set("op_tail_ms", whatif_tail, "ms");
  m.set("read_ms", mean(closed_reads_ms), "ms");
  m.set("ops_per_s", sat_rps, "1/s");
  m.set("peak_rss_mb", rss, "MB");
  m.set("ok_share",
        1.0 - static_cast<double>(out_.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, out_.attempted)),
        "share");
  out_.fingerprint.samples["open_loop_whatifs"] =
      static_cast<double>(whatif_ms.size());
  out_.fingerprint.samples["open_loop_reads"] =
      static_cast<double>(open_reads_ms.size());
  out_.fingerprint.samples["whatifs_beyond_p95"] = static_cast<double>(
      std::count_if(whatif_ms.begin(), whatif_ms.end(),
                    [whatif_tail](double ms) { return ms > whatif_tail; }));
  out_.fingerprint.samples["closed_loop_whatifs"] =
      static_cast<double>(closed_whatif_ms.size());
  out_.fingerprint.samples["closed_loop_reads"] =
      static_cast<double>(closed_reads_ms.size());
  out_.fingerprint.samples["client_late_p99_ms"] = late_p99;
  out_.fingerprint.samples["backlog_growth"] = growth;

  if (s_.trace) {
    m.set("client.late_p99_ms", late_p99, "ms");
    m.set("client.open_whatif_p50_ms", median(whatif_ms), "ms");
    m.set("client.open_read_tail_ms", quantile(open_reads_ms, 0.9), "ms");
    layer_table(open_counters);
    log_.write_jsonl(s_.work_dir + "/" + s_.workload + "-spans.jsonl");
  }
}

}  // namespace

RunOutcome run_whatif(const RunSettings& settings) {
  RunOutcome out;
  WhatifRun(settings, out).run();
  return out;
}

}  // namespace perfbench
