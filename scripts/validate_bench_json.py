#!/usr/bin/env python3
"""Validate a BENCH_*.json document against the afdx-bench/1 schema.

Usage: scripts/validate_bench_json.py BENCH_table1_industrial.json [...]

The schema is documented in EXPERIMENTS.md ("Machine-readable bench
output"). This validator is intentionally dependency-free (stdlib json
only) so it runs anywhere CI does.

Exit status: 0 when every document validates, 1 otherwise.
"""

import json
import sys

NUMBER = (int, float)


class Invalid(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Invalid(msg)


def check_number(doc, path, allow_none=False):
    cur = doc
    for part in path.split("."):
        require(isinstance(cur, dict), f"{path}: parent is not an object")
        require(part in cur, f"{path}: missing")
        cur = cur[part]
    if allow_none and cur is None:
        return
    require(isinstance(cur, NUMBER) and not isinstance(cur, bool),
            f"{path}: expected a number, got {cur!r}")


def check_tracer_overhead(doc):
    for field in ("calibration_iterations", "disabled_ns_per_span",
                  "enabled_ns_per_span", "run_spans", "run_wall_us",
                  "disabled_overhead_pct", "enabled_overhead_pct"):
        check_number(doc, f"tracer_overhead.{field}")
    oh = doc["tracer_overhead"]
    require(oh["disabled_ns_per_span"] >= 0,
            "tracer_overhead.disabled_ns_per_span: negative")
    # The stated budget: tracing must be ~free when disabled (every bench),
    # and cost <5% when enabled on the reference workload. Micro-benches
    # with sub-millisecond runs have proportionally higher span density, so
    # the enabled budget is only enforced where it is defined:
    # table1_industrial (see EXPERIMENTS.md).
    require(oh["disabled_overhead_pct"] < 1.0,
            f"disabled tracing overhead {oh['disabled_overhead_pct']:.3f}% "
            "breaches the ~0% budget")
    if doc.get("bench") == "table1_industrial":
        require(oh["enabled_overhead_pct"] < 5.0,
                f"enabled tracing overhead {oh['enabled_overhead_pct']:.3f}% "
                "breaches the <5% budget")


def check_registry(doc):
    require(isinstance(doc.get("counters"), dict), "counters: missing/not an object")
    for name, value in doc["counters"].items():
        require(isinstance(value, int) and not isinstance(value, bool),
                f"counters.{name}: expected an integer, got {value!r}")
    require(isinstance(doc.get("histograms"), dict),
            "histograms: missing/not an object")
    for name, hist in doc["histograms"].items():
        require(isinstance(hist, dict), f"histograms.{name}: not an object")
        for field in ("count", "sum", "min", "max", "mean"):
            require(field in hist, f"histograms.{name}.{field}: missing")
            require(isinstance(hist[field], NUMBER),
                    f"histograms.{name}.{field}: not a number")


def check_metrics(doc):
    if "metrics" not in doc:  # optional: only engine-driven benches emit it
        return
    for field in ("netcalc_wall_us", "trajectory_wall_us", "total_wall_us",
                  "total_cpu_us", "paths", "paths_per_second", "threads",
                  "levels", "max_level_width"):
        check_number(doc, f"metrics.{field}", allow_none=True)
    for field in ("hits", "misses", "hit_rate"):
        check_number(doc, f"metrics.cache.{field}", allow_none=True)


def check_ladder_frontier(doc):
    """Bench-specific contract of BENCH_ladder_frontier.json: the frontier
    is non-empty, every point is sound (pessimism >= 1) with full path
    coverage, and the mean pessimism is monotonically non-increasing as the
    token budget grows (the points are emitted in budget order)."""
    if doc.get("bench") != "ladder_frontier":
        return
    frontier = doc["results"].get("frontier")
    require(isinstance(frontier, list) and frontier,
            "results.frontier: missing/empty")
    prev_mean = None
    for i, point in enumerate(frontier):
        require(isinstance(point, dict), f"frontier[{i}]: not an object")
        for field in ("budget", "path_evals", "paths_escalated",
                      "mean_pessimism", "max_pessimism", "min_pessimism",
                      "paths_measured", "wall_us"):
            require(field in point, f"frontier[{i}].{field}: missing")
        require(point["min_pessimism"] >= 1.0 - 1e-9,
                f"frontier[{i}] ({point['budget']}): min pessimism "
                f"{point['min_pessimism']} < 1 witnesses unsoundness")
        require(point["paths_measured"] > 0,
                f"frontier[{i}] ({point['budget']}): no paths measured")
        if prev_mean is not None:
            require(point["mean_pessimism"] <= prev_mean + 1e-9,
                    f"frontier[{i}] ({point['budget']}): mean pessimism "
                    f"{point['mean_pessimism']} rose above the cheaper "
                    f"budget's {prev_mean} (frontier must be monotone)")
        prev_mean = point["mean_pessimism"]
    last = frontier[-1]
    require(last["budget"] == "unlimited" and not last["budget_exhausted"],
            "frontier[-1]: expected the unlimited (complete) ladder run")


def check_capacity(doc):
    """Bench-specific contract of BENCH_capacity.json: the frontier is
    non-empty, sizes grow strictly monotonically, the three quick rungs
    (500/2000/10000 VLs) are always present, a full run tops out at a
    >= 100k-VL rung, every rung reports a positive paths/second, and the
    streaming sink saw exactly one record per path (nothing dropped,
    nothing materialized twice)."""
    if doc.get("bench") != "capacity":
        return
    frontier = doc["results"].get("frontier")
    require(isinstance(frontier, list) and frontier,
            "results.frontier: missing/empty")
    prev_vls = None
    for i, point in enumerate(frontier):
        require(isinstance(point, dict), f"frontier[{i}]: not an object")
        for field in ("vls", "domains", "switches", "paths", "gen_wall_us",
                      "analysis_wall_us", "paths_per_second", "ok", "failed",
                      "skipped", "sink_calls"):
            require(field in point, f"frontier[{i}].{field}: missing")
        require(point["paths_per_second"] > 0,
                f"frontier[{i}] ({point['vls']} VLs): paths_per_second "
                f"{point['paths_per_second']!r} not positive")
        require(point["sink_calls"] == point["paths"],
                f"frontier[{i}] ({point['vls']} VLs): sink saw "
                f"{point['sink_calls']} records for {point['paths']} paths")
        require(point["ok"] + point["failed"] + point["skipped"]
                == point["paths"],
                f"frontier[{i}] ({point['vls']} VLs): ok/failed/skipped do "
                "not add up to the path count")
        if prev_vls is not None:
            require(point["vls"] > prev_vls,
                    f"frontier[{i}]: sizes must be strictly increasing "
                    f"({point['vls']} after {prev_vls})")
        prev_vls = point["vls"]
    sizes = {point["vls"] for point in frontier}
    for rung in (500, 2000, 10000):
        require(rung in sizes,
                f"frontier: quick rung {rung} VLs missing (got "
                f"{sorted(sizes)})")
    if doc.get("mode") == "full":
        require(prev_vls >= 100000,
                f"frontier: largest full-mode rung is {prev_vls} VLs, "
                "expected >= 100000")


def validate(doc):
    require(isinstance(doc, dict), "top level: not an object")
    require(doc.get("schema") == "afdx-bench/1",
            f"schema: expected 'afdx-bench/1', got {doc.get('schema')!r}")
    require(isinstance(doc.get("bench"), str) and doc["bench"],
            "bench: missing/empty")
    require(doc.get("mode") in ("quick", "full"),
            f"mode: expected 'quick' or 'full', got {doc.get('mode')!r}")
    require(isinstance(doc.get("config"), dict), "config: missing/not an object")
    require(isinstance(doc.get("results"), dict),
            "results: missing/not an object")
    check_metrics(doc)
    check_registry(doc)
    check_tracer_overhead(doc)
    check_ladder_frontier(doc)
    check_capacity(doc)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    failed = False
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            validate(doc)
        except (OSError, json.JSONDecodeError, Invalid) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            failed = True
            continue
        print(f"{path}: OK (bench={doc['bench']}, mode={doc['mode']}, "
              f"counters={len(doc['counters'])}, "
              f"disabled_overhead={doc['tracer_overhead']['disabled_overhead_pct']:.4f}%)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
