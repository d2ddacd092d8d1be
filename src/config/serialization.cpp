#include "config/serialization.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace afdx::config {

namespace {

using Tokens = std::vector<std::string_view>;

/// Splits `line` in place into tokens separated by blanks (the C-locale
/// whitespace `istream >> std::string` skips); a token that starts with '#'
/// ends the line. The views point into `line`.
void tokenize(std::string_view line, Tokens& toks) {
  constexpr std::string_view kBlanks = " \t\n\v\f\r";
  toks.clear();
  for (std::size_t pos = line.find_first_not_of(kBlanks);
       pos != std::string_view::npos && line[pos] != '#';
       pos = line.find_first_not_of(kBlanks, pos)) {
    const std::size_t end = std::min(line.find_first_of(kBlanks, pos), line.size());
    toks.push_back(line.substr(pos, end - pos));
    pos = end;
  }
}

/// The "line N: " prefix every error caused by one line starts with.
std::string at(int line_no) { return "line " + std::to_string(line_no) + ": "; }

/// Runs `f`, prefixing an afdx::Error thrown by another layer (Network,
/// VirtualLink) with the line that caused it.
template <class F>
void on_line(int line_no, F&& f) {
  try {
    f();
  } catch (const Error& e) {
    throw Error(at(line_no) + e.what());
  }
}

/// Splits "key=value"; throws on malformed input.
std::pair<std::string_view, std::string_view> split_kv(std::string_view tok,
                                                       int line_no) {
  const auto eq = tok.find('=');
  AFDX_REQUIRE(eq != std::string_view::npos && eq > 0 && eq + 1 < tok.size(),
               at(line_no) + "expected key=value, got '" + std::string(tok) +
                   "'");
  return {tok.substr(0, eq), tok.substr(eq + 1)};
}

/// Splits a route hop "a>b"; throws on malformed input.
std::pair<std::string_view, std::string_view> split_hop(std::string_view tok,
                                                        int line_no) {
  const auto gt = tok.find('>');
  AFDX_REQUIRE(gt != std::string_view::npos && gt > 0 && gt + 1 < tok.size(),
               at(line_no) + "route hop must be 'a>b', got '" +
                   std::string(tok) + "'");
  return {tok.substr(0, gt), tok.substr(gt + 1)};
}

// Strict attribute decoding via common/parse (whole-string from_chars):
// rejects empty values, trailing garbage ("12x"), and out-of-range input,
// and names the offending key so "bad number" is actually findable.
double attr_number(std::string_view s, std::string_view key, int line_no) {
  const auto v = afdx::parse_double(s);
  AFDX_REQUIRE(v.has_value(), at(line_no) + "attribute '" + std::string(key) +
                                  "': bad number '" + std::string(s) + "'");
  return *v;
}

/// A non-negative integer attribute no larger than `max` ("100.5", "-1",
/// "1e2" and out-of-range values are rejected, naming the key and line).
std::uint64_t attr_uint(std::string_view s, std::string_view key, int line_no,
                        std::uint64_t max) {
  const auto v = afdx::parse_uint(s);
  AFDX_REQUIRE(v.has_value(), at(line_no) + "attribute '" + std::string(key) +
                                  "': expected a non-negative integer, got '" +
                                  std::string(s) + "'");
  AFDX_REQUIRE(*v <= max, at(line_no) + "attribute '" + std::string(key) +
                              "': " + std::string(s) + " is out of range (0.." +
                              std::to_string(max) + ")");
  return *v;
}

std::size_t route_dest_index(std::string_view s, int line_no) {
  const auto v = afdx::parse_uint(s);
  AFDX_REQUIRE(v.has_value(), at(line_no) +
                                  "route destination index: bad unsigned "
                                  "integer '" + std::string(s) + "'");
  return static_cast<std::size_t>(*v);
}

}  // namespace

void save_config(const TrafficConfig& config, std::ostream& out) {
  const Network& net = config.network();
  out << "afdx-config v1\n";
  for (NodeId n = 0; n < net.node_count(); ++n) {
    out << "node " << (net.is_end_system(n) ? "es" : "sw") << " "
        << net.node(n).name << "\n";
  }
  // Each cable appears as two directed links; emit it once, from the even id.
  for (LinkId l = 0; l < net.link_count(); l += 2) {
    const Link& fwd = net.link(l);
    const Link& bwd = net.link(net.reverse(l));
    const Microseconds sw_lat =
        net.is_switch(fwd.source) ? fwd.latency : bwd.latency;
    const Microseconds es_lat =
        net.is_end_system(fwd.source) ? fwd.latency
        : net.is_end_system(bwd.source) ? bwd.latency
                                        : sw_lat;  // switch-switch cable
    out << "link " << net.node(fwd.source).name << " "
        << net.node(fwd.dest).name << " rate=" << fwd.rate
        << " swlat=" << sw_lat << " eslat=" << es_lat << "\n";
  }
  for (VlId id = 0; id < config.vl_count(); ++id) {
    const VirtualLink& vl = config.vl(id);
    out << "vl " << vl.name << " src=" << net.node(vl.source).name << " dst=";
    for (std::size_t d = 0; d < vl.destinations.size(); ++d) {
      if (d) out << ",";
      out << net.node(vl.destinations[d]).name;
    }
    out << " bag=" << vl.bag << " smin=" << vl.s_min << " smax=" << vl.s_max;
    if (vl.max_release_jitter > 0.0) out << " jit=" << vl.max_release_jitter;
    if (vl.priority != 0) out << " prio=" << static_cast<int>(vl.priority);
    out << "\n";
    for (std::size_t d = 0; d < vl.destinations.size(); ++d) {
      out << "route " << vl.name << " " << d;
      for (LinkId l : config.route(id).paths()[d]) {
        out << " " << net.node(net.link(l).source).name << ">"
            << net.node(net.link(l).dest).name;
      }
      out << "\n";
    }
  }
}

std::string save_config_string(const TrafficConfig& config) {
  std::ostringstream os;
  save_config(config, os);
  return os.str();
}

TrafficConfig load_config(std::istream& in) {
  Network net;
  struct PendingVl {
    VirtualLink vl;
    int line_no = 0;
    /// Per destination: the line of its route, 0 while it has none.
    std::vector<int> route_line_no;
  };
  std::vector<PendingVl> vls;
  std::unordered_map<std::string, std::size_t> vl_index;
  // Route lines are resolved after the last line, so a route may precede
  // its VL and a hop may name a node declared later.
  struct PendingRoute {
    std::string text;
    std::size_t dest = 0;
    int line_no = 0;
  };
  std::vector<PendingRoute> route_lines;

  auto node_id = [&](std::string_view name, int line_no) {
    const auto id = net.find_node(name);
    AFDX_REQUIRE(id.has_value(),
                 at(line_no) + "unknown node '" + std::string(name) + "'");
    return *id;
  };

  std::string line;
  Tokens toks;
  int line_no = 0;
  bool header_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    tokenize(line, toks);
    if (toks.empty()) continue;
    if (!header_seen) {
      AFDX_REQUIRE(toks.size() == 2 && toks[0] == "afdx-config" && toks[1] == "v1",
                   at(line_no) + "expected header 'afdx-config v1'");
      header_seen = true;
      continue;
    }
    if (toks[0] == "node") {
      AFDX_REQUIRE(toks.size() == 3, at(line_no) + "node needs kind and name");
      if (toks[1] == "es") {
        on_line(line_no, [&] { net.add_end_system(std::string(toks[2])); });
      } else if (toks[1] == "sw") {
        on_line(line_no, [&] { net.add_switch(std::string(toks[2])); });
      } else {
        throw Error(at(line_no) + "node kind must be 'es' or 'sw'");
      }
    } else if (toks[0] == "link") {
      AFDX_REQUIRE(toks.size() >= 3, at(line_no) + "link needs two node names");
      LinkParams lp;
      for (std::size_t i = 3; i < toks.size(); ++i) {
        auto [k, v] = split_kv(toks[i], line_no);
        if (k == "rate") {
          lp.rate = attr_number(v, k, line_no);
        } else if (k == "swlat") {
          lp.switch_latency = attr_number(v, k, line_no);
        } else if (k == "eslat") {
          lp.end_system_latency = attr_number(v, k, line_no);
        } else {
          throw Error(at(line_no) + "unknown link attribute '" +
                      std::string(k) + "'");
        }
      }
      const NodeId a = node_id(toks[1], line_no);
      const NodeId b = node_id(toks[2], line_no);
      on_line(line_no, [&] { net.connect(a, b, lp); });
    } else if (toks[0] == "vl") {
      AFDX_REQUIRE(toks.size() >= 2, at(line_no) + "vl needs a name");
      VirtualLink vl;
      vl.name = toks[1];
      for (std::size_t i = 2; i < toks.size(); ++i) {
        auto [k, v] = split_kv(toks[i], line_no);
        if (k == "src") {
          vl.source = node_id(v, line_no);
        } else if (k == "dst") {
          // Every comma separates a name, so "a,,b" names an empty node.
          for (std::size_t pos = 0;;) {
            const std::size_t comma = std::min(v.find(',', pos), v.size());
            vl.destinations.push_back(node_id(v.substr(pos, comma - pos), line_no));
            if (comma == v.size()) break;
            pos = comma + 1;
          }
        } else if (k == "bag") {
          vl.bag = attr_number(v, k, line_no);
        } else if (k == "smin") {
          vl.s_min = static_cast<Bytes>(
              attr_uint(v, k, line_no, std::numeric_limits<Bytes>::max()));
        } else if (k == "smax") {
          vl.s_max = static_cast<Bytes>(
              attr_uint(v, k, line_no, std::numeric_limits<Bytes>::max()));
        } else if (k == "jit") {
          vl.max_release_jitter = attr_number(v, k, line_no);
        } else if (k == "prio") {
          vl.priority = static_cast<std::uint8_t>(attr_uint(
              v, k, line_no, std::numeric_limits<std::uint8_t>::max()));
        } else {
          throw Error(at(line_no) + "unknown vl attribute '" + std::string(k) +
                      "'");
        }
      }
      on_line(line_no, [&] { vl.validate(); });
      const auto [it, inserted] = vl_index.try_emplace(vl.name, vls.size());
      AFDX_REQUIRE(inserted, at(line_no) + "duplicate VL name '" + vl.name +
                                 "' (first on line " +
                                 std::to_string(vls[it->second].line_no) + ")");
      vls.push_back({std::move(vl), line_no, {}});
    } else if (toks[0] == "route") {
      AFDX_REQUIRE(toks.size() >= 4,
                   at(line_no) + "route needs vl, dest index, hops");
      const std::size_t dest = route_dest_index(toks[2], line_no);
      for (std::size_t i = 3; i < toks.size(); ++i) split_hop(toks[i], line_no);
      route_lines.push_back({line, dest, line_no});
    } else {
      throw Error(at(line_no) + "unknown directive '" + std::string(toks[0]) +
                  "'");
    }
  }
  AFDX_REQUIRE(header_seen, "missing 'afdx-config v1' header");

  // Resolve explicit routes to link ids, in line order.
  std::vector<std::vector<std::vector<LinkId>>> routes(vls.size());
  for (const PendingRoute& r : route_lines) {
    tokenize(r.text, toks);
    const std::string vl_name(toks[1]);
    const auto it = vl_index.find(vl_name);
    AFDX_REQUIRE(it != vl_index.end(),
                 at(r.line_no) + "route for unknown VL '" + vl_name + "'");
    PendingVl& p = vls[it->second];
    const std::size_t dest_count = p.vl.destinations.size();
    AFDX_REQUIRE(r.dest < dest_count, at(r.line_no) + "route for VL " +
                                          vl_name +
                                          ": destination index out of range");
    if (p.route_line_no.empty()) {
      p.route_line_no.assign(dest_count, 0);
      routes[it->second].resize(dest_count);
    }
    int& first_line = p.route_line_no[r.dest];
    AFDX_REQUIRE(first_line == 0,
                 at(r.line_no) + "duplicate route for VL " + vl_name +
                     " destination " + std::to_string(r.dest) +
                     " (first on line " + std::to_string(first_line) + ")");
    first_line = r.line_no;
    std::vector<LinkId>& links = routes[it->second][r.dest];
    for (std::size_t i = 3; i < toks.size(); ++i) {
      const auto [a, b] = split_hop(toks[i], r.line_no);
      const auto l = net.link_between(node_id(a, r.line_no), node_id(b, r.line_no));
      AFDX_REQUIRE(l.has_value(), at(r.line_no) + "route for VL " + vl_name +
                                      ": no link " + std::string(a) + " -> " +
                                      std::string(b));
      links.push_back(*l);
    }
  }

  std::vector<VirtualLink> vl_defs;
  vl_defs.reserve(vls.size());
  for (auto& p : vls) vl_defs.push_back(std::move(p.vl));
  return TrafficConfig(std::move(net), std::move(vl_defs), std::move(routes));
}

TrafficConfig load_config_string(const std::string& text) {
  std::istringstream is(text);
  return load_config(is);
}

TrafficConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  AFDX_REQUIRE(in.good(), "cannot open configuration file: " + path);
  return load_config(in);
}

void save_config_file(const TrafficConfig& config, const std::string& path) {
  std::ofstream out(path);
  AFDX_REQUIRE(out.good(), "cannot write configuration file: " + path);
  save_config(config, out);
}

}  // namespace afdx::config
