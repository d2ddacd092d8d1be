#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout. It checks, on tiny inputs that take the
same code paths as the real workloads:

  * every workload prints, as its last line, a result with exactly the keys
    correct/attempted/failed/metrics, correct = true, and metric names and
    units equal to BENCHMARK.json (end_to_end with --trace 0, per_layer
    with --trace 1);
  * a deliberately perturbed reference (--perturb-reference) trips the
    correctness gate of every workload: exit code 1, correct = false;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py fails quickly and prints no result.

Exit code 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            r = run(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--tiny"])
            res = last_json(r.stdout)
            tag = f"{name} --trace {trace}"
            if r.returncode != 0 or res is None:
                failures.append(f"{tag}: exit {r.returncode}\n{r.stderr[-800:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("attempted", 0) < 1:
                failures.append(f"{tag}: not correct or nothing attempted")
            printed = {k: v.get("unit") for k, v in res["metrics"].items()}
            if printed != tables[trace]:
                failures.append(f"{tag}: metrics {printed} != BENCHMARK.json "
                                f"{tables[trace]}")
            print(f"ok   {tag}")

        r = run(["--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny", "--perturb-reference"])
        res = last_json(r.stdout)
        if r.returncode != 1 or res is None or res.get("correct") is not False:
            failures.append(f"{name}: perturbed reference did not trip the "
                            f"gate (exit {r.returncode})")
        else:
            print(f"ok   {name} perturbed reference trips the gate")

    # Only BENCHMARK.json and the benchmark's files: must fail, no result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.monotonic()
    r = subprocess.run([sys.executable, os.path.join(bare, "perfbench", "run.py"),
                        "--workload", spec["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    if r.returncode == 0 or last_json(r.stdout) is not None:
        failures.append("bare directory: run.py did not fail cleanly")
    else:
        print(f"ok   bare directory fails in {time.monotonic() - t0:.1f} s")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
