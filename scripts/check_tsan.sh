#!/usr/bin/env sh
# Builds the project under ThreadSanitizer and runs the parallel analysis
# engine's determinism/cache tests (including the error-containment /
# streaming regressions and the locality-partitioned scheduler's warm
# shared-cache / per-shard metrics regressions, and the shards sharing one
# slot table and one lock-free prefix store), the lock-free prefix store
# itself (PrefixCache.*: racing writers and readers of one slot), the
# trajectory analyzer's reuse-after-throw regression and SIMD-vs-scalar
# sweep identity tests, the observability layer's tracer / counter
# concurrency tests, the
# serving subsystem's concurrent session / server tests, the
# accuracy/cost ladder's sharded escalation tests, and the two other
# ThreadPool batch callers: the parallel fault sweep
# (Report.ParallelSweepMatchesSerial) and the parallel fuzz campaigns
# (Campaign.ReportIsDeterministicAcrossThreadCounts) (see README
# "Sanitizer builds"). The Engine*/Trajectory* name filters below pick the
# new tests up automatically.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DAFDX_SANITIZE=thread
cmake --build "$BUILD_DIR" --target test_engine test_obs test_serve test_ladder test_trajectory \
    test_faults test_valid -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" \
    -R '^(Engine|ThreadPool|PortCache|Tracer|Counters|JsonWriter|Overhead|Session|Serve|Ladder|Trajectory|PrefixCache)|^Report\.ParallelSweepMatchesSerial$|^Campaign\.ReportIsDeterministicAcrossThreadCounts$' \
    --output-on-failure
