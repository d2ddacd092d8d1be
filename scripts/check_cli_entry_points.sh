#!/usr/bin/env bash
# Every afdx_analyze entry point computes the same bounds: the plain run,
# --partial and --stream must print identical trajectory_us and combined_us
# columns for every path (--stream prints rows in completion order, so rows
# are sorted before comparing).
#
# Usage: scripts/check_cli_entry_points.sh AFDX_ANALYZE [ANALYZE ARGS...]
#   e.g. scripts/check_cli_entry_points.sh build/tools/afdx_analyze \
#        --generate=7 --no-grouping --csv
set -euo pipefail
bin=$1
shift

# vl,destination,trajectory_us,combined_us of every row, sorted.
columns() {
  "$bin" "$@" | awk -F, '
    NR == 1 { for (i = 1; i <= NF; ++i) col[$i] = i; next }
    { print $col["vl"] "," $col["destination"] "," \
            $col["trajectory_us"] "," $col["combined_us"] }' | sort
}

plain=$(columns "$@")
status=0
for mode in --partial --stream; do
  if ! diff <(echo "$plain") <(columns "$@" "$mode") > /dev/null; then
    echo "$mode disagrees with the plain run on" \
         "$(diff <(echo "$plain") <(columns "$@" "$mode") | grep -c '^>')" \
         "paths" >&2
    status=1
  fi
done
[ -n "$plain" ] || { echo "no rows" >&2; exit 1; }
exit $status
