#!/usr/bin/env bash
# Byte-identity check for router changes: routes the built-in suite with two
# `codar` binaries on 6 devices x 10 flag sets and compares each pair of
# stats files (and exit codes) byte for byte.
#
#   scripts/compare_routes.sh OLD_CODAR NEW_CODAR
#
# Prints one "DRIFT: DEVICE FLAGS" line per differing run, then a summary,
# and exits 1 on any drift (2 on a usage error). The suite's 36-qubit
# programs fail on the 16- and 20-qubit devices, so those runs exit 1 with
# per-job errors; their stats are written and compared all the same.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 OLD_CODAR NEW_CODAR" >&2
  exit 2
fi
old=$1
new=$2
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

devices=(q16 tokyo enfield sycamore
         "file:$root/examples/devices/tokyo_calibrated.json"
         "file:$root/examples/devices/tokyo-noisy.json")
flag_sets=("" "--no-commutativity" "--window 0" "--window 1" "--window 8"
           "--no-context" "--no-context --no-duration" "--router codar-fid"
           "--router sabre" "--no-fine-priority --stagnation 1")

runs=0
drift=0
for device in "${devices[@]}"; do
  for flags in "${flag_sets[@]}"; do
    rm -f "$tmp/old.json" "$tmp/new.json"
    # $flags is split into words on purpose.
    # shellcheck disable=SC2086
    "$old" --suite -j 3 --device "$device" $flags --stats "$tmp/old.json" \
      2>/dev/null
    old_exit=$?
    # shellcheck disable=SC2086
    "$new" --suite -j 3 --device "$device" $flags --stats "$tmp/new.json" \
      2>/dev/null
    new_exit=$?
    runs=$((runs + 1))
    if [ "$old_exit" -ne "$new_exit" ] ||
       ! cmp -s "$tmp/old.json" "$tmp/new.json"; then
      echo "DRIFT: ${device#file:"$root"/} $flags"
      drift=$((drift + 1))
    fi
  done
done
echo "compare_routes: $drift of $runs runs drifted"
[ "$drift" -eq 0 ]
