// Text (de)serialization of AFDX configurations.
//
// Line-oriented format (tokens separated by blanks, '#' starts a comment):
//
//   afdx-config v1
//   node es <name>               # end system
//   node sw <name>               # switch
//   link <a> <b> rate=<Mb/s> swlat=<us> eslat=<us>
//   vl <name> src=<es> dst=<es>[,<es>...] bag=<us> smin=<bytes> smax=<bytes>
//   route <vl> <dest-index> <n0>><n1> <n1>><n2> ...
//
// Directives may come in any order after the header, except that a `link`
// or `vl` line names nodes declared above it. `route` lines are optional;
// destinations without one are routed on the shortest path. Routes are
// resolved after the last line, so a route may precede its `vl` line and
// its hops may name nodes declared further down. A second `vl` with the
// same name, or a second `route` for the same (VL, destination index), is
// rejected with both line numbers. Every error caused by one line starts
// with "line N: "; whole-network checks (missing header, unconnected
// switch) carry no line. Loading always re-validates the full
// configuration. Loading is linear in the file size: one pass splits each
// line in place, and every name is resolved through a hash.
#pragma once

#include <iosfwd>
#include <string>

#include "vl/traffic_config.hpp"

namespace afdx::config {

/// Serializes a configuration (including its routes, so a round-trip is
/// exact even when routing was automatic).
void save_config(const TrafficConfig& config, std::ostream& out);

/// Convenience overload returning the text.
[[nodiscard]] std::string save_config_string(const TrafficConfig& config);

/// Parses a configuration; throws afdx::Error with a line number on any
/// syntax or consistency problem.
[[nodiscard]] TrafficConfig load_config(std::istream& in);

/// Convenience overload parsing from a string.
[[nodiscard]] TrafficConfig load_config_string(const std::string& text);

/// Loads a configuration from a file path.
[[nodiscard]] TrafficConfig load_config_file(const std::string& path);

/// Saves a configuration to a file path.
void save_config_file(const TrafficConfig& config, const std::string& path);

}  // namespace afdx::config
