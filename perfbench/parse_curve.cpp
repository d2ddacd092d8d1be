// parse_curve -- cost of loading a saved configuration against its size.
//
//   parse_curve [VLS ...]      (default: 500 2500 10000 25000 50000)
//
// For each size it generates the industrial configuration (8 domains per
// 10k VLs, seed 42), saves it as text, and times config::load_config_string
// on that text and the TrafficConfig(network, vls, routes) constructor on
// the parsed pieces. The README of the benchmark records the curve.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "config/serialization.hpp"
#include "gen/industrial.hpp"

int main(int argc, char** argv) {
  std::vector<int> sizes;
  for (int i = 1; i < argc; ++i) sizes.push_back(std::atoi(argv[i]));
  if (sizes.empty()) sizes = {500, 2500, 10000, 25000, 50000};
  std::printf("%8s %8s %12s %12s %12s\n", "vls", "paths", "text_MB",
              "load_ms", "index_ms");
  for (const int vls : sizes) {
    afdx::gen::IndustrialOptions go;
    go.seed = 42;
    go.vl_count = vls;
    go.domains = std::max(1, vls * 8 / 10000);
    const std::string text = afdx::config::save_config_string(
        afdx::gen::industrial_config(go));
    const auto t0 = perfbench::Clock::now();
    const afdx::TrafficConfig cfg = afdx::config::load_config_string(text);
    const double load_ms = perfbench::ms_between(t0, perfbench::Clock::now());
    std::printf("%8d %8zu %12.1f %12.1f %12.1f\n", vls, cfg.all_paths().size(),
                static_cast<double>(text.size()) / 1e6, load_ms,
                perfbench::time_index_ms(cfg));
    std::fflush(stdout);
  }
  return 0;
}
