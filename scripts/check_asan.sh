#!/usr/bin/env sh
# Builds the project under AddressSanitizer and runs the full test suite
# plus afdx_analyze on every configuration file in tests/data. The
# configuration loader works on views into its line buffers; use-after-free
# and out-of-bounds reads there are what this check catches.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -eu

BUILD_DIR="${1:-build-asan}"
REPO="$(dirname "$0")/.."

cmake -B "$BUILD_DIR" -S "$REPO" -DAFDX_SANITIZE=address
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure
for f in "$REPO"/tests/data/*.afdx; do
  # Exit 2 is an analysis the file is meant to fail (cyclic.afdx,
  # unstable.afdx); an AddressSanitizer report exits 1.
  code=0
  "$BUILD_DIR/tools/afdx_analyze" "$f" > /dev/null || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 2 ]; then
    echo "afdx_analyze $f exited $code" >&2
    exit 1
  fi
done
