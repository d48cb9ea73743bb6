#!/usr/bin/env bash
# Byte-identity check for service changes: pipes one fixed NDJSON stream
# through two `codar` binaries' stdio `serve` and compares the responses.
#
#   scripts/compare_serve.sh OLD_CODAR NEW_CODAR
#
# The stream holds suite names, inline QASM (one program broken), the two
# calibrated example devices inline, option variants, unknown names, a
# malformed line, exact repeats, content aliases, and a stats line after
# the cold half and at the end. Responses stream in completion order, so
# both runs are sorted by id first. At --threads 1 every response must
# match byte for byte. At --threads 4 two requests for one new key may
# swap which of them routed, flipping "cached", so only each "result"
# object and the two stats lines are compared.
#
# A persistence pass follows: each binary serves the stream into its own
# fresh --cache-dir, then each restarts on the other's directory and
# serves it again at --threads 4, answering every route from the other
# binary's records. Those two runs are compared like the --threads 4 pass,
# and each must route nothing.
#
# Prints one "DRIFT: PASS id ID" line per differing response (and
# "DRIFT: PASS exit OLD NEW" for differing exit codes, "DRIFT: persist
# SIDE routed" for a restart that routed), where PASS is 1, 4 or persist,
# then a summary, and exits 1 on any drift (2 on a usage error).
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

calibrated=$(tr '\n' ' ' < "$root/examples/devices/tokyo_calibrated.json")
noisy=$(tr '\n' ' ' < "$root/examples/devices/tokyo-noisy.json")
ghz='OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];'
broken='OPENQASM 2.0; qreg q[2'

# The cold half holds distinct keys and exact repeats only: a repeat that
# coalesces into a route renders the same bytes whichever of the two
# routed. Content aliases (another name or device spelling for a resident
# key) wait until the stats barrier has made every key resident.
cat > "$tmp/stream.ndjson" <<EOF
{"id": 1, "suite_name": "qft_8"}
{"id": 2, "suite_name": "qft_8"}
{"id": 3, "suite_name": "ghz_5", "device": "enfield"}
{"id": 4, "suite_name": "random_8_300", "router": "sabre"}
{"id": 5, "suite_name": "random_8_300", "router": "codar-fid"}
{"id": 6, "suite_name": "qft_6", "options": {"seed": 3, "initial": "greedy"}}
{"id": 7, "suite_name": "qaoa_6_2", "options": {"context": false, "duration": false}}
{"id": 8, "suite_name": "draper_3", "options": {"commutativity": false, "window": 8, "stagnation": 3}}
{"id": 9, "suite_name": "qft_8", "device": $calibrated}
{"id": 10, "suite_name": "qft_8", "device": $noisy, "router": "codar-fid"}
{"id": 11, "suite_name": "qft_8", "device": $calibrated}
{"id": 12, "qasm": "$ghz", "device": "linear:3", "name": "ghz-a"}
{"id": 13, "qasm": "$broken"}
{"id": 14, "suite_name": "no_such_benchmark"}
{"id": 15, "suite_name": "ghz_3", "device": "no_such_device"}
{"id": 16, "suite_name": "random_11_700", "options": {"peephole": true, "verify": false}}
{"id": 17, "suite_name": "ghz_8", "options": {"mapping_rounds": 2, "mapping_horizon": 0}}
{"id": 18, "suite_name": "bv_6", "router": "codar-fid", "options": {"alpha": 1.5, "beta": 0, "gamma": 2.25}}
{"id": 19, "suite_name": "ghz_3", "router": "no_such_router"}
{"id": 20, this is not json}
{"id": 21, "cmd": "stats"}
{"id": 22, "suite_name": "qft_8"}
{"id": 23, "suite_name": "ghz_5", "device": "enfield"}
{"id": 24, "suite_name": "random_8_300", "router": "sabre"}
{"id": 25, "suite_name": "qft_8", "device": $noisy, "router": "codar-fid"}
{"id": 26, "suite_name": "qft_8", "device": "tokyo"}
{"id": 27, "qasm": "$ghz", "device": "grid:1x3", "name": "ghz-b"}
{"id": 28, "qasm": "$ghz", "device": "linear:3"}
{"id": 29, "suite_name": "qft_6", "name": "renamed", "options": {"seed": 3, "initial": "greedy"}}
{"id": 30, "qasm": "$broken", "device": "no_such_device"}
{"id": 31, "suite_name": "no_such_benchmark"}
{"id": 32, "suite_name": "qft_8", "options": {"timing": false, "seed": 17}}
{"id": 33, "cmd": "stats"}
EOF

# Runs BINARY at THREADS (further arguments go to serve) and writes
# "ID<TAB>RESPONSE" lines sorted by id to OUT (every id in the stream is a
# number).
run() {
  local binary=$1 threads=$2 out=$3
  shift 3
  "$binary" serve --threads "$threads" "$@" < "$tmp/stream.ndjson" \
    > "$out.raw" 2>/dev/null
  echo $? > "$out.exit"
  awk '{ id = $0; sub(/^\{"id": /, "", id); sub(/,.*/, "", id); print id "\t" $0 }' \
    "$out.raw" | sort -n -k1,1 > "$out"
}

# Prints one DRIFT line per id whose response differs or is missing.
compare() {
  awk -F'\t' -v label="$1" '
    NR == FNR { if ($1 in old) dup[$1] = 1; old[$1] = $2; next }
    {
      if ($1 in seen) dup[$1] = 1
      seen[$1] = 1
      if (!($1 in old) || old[$1] != $2) print "DRIFT: " label " id " $1
    }
    END {
      for (id in old) if (!(id in seen)) print "DRIFT: " label " id " id
      for (id in dup) print "DRIFT: " label " id " id " answered twice"
    }' "$2" "$3"
}

# Drops "cached" from both sides' responses: which of two requests for one
# new key routed may differ between runs.
drop_cached() {
  for side in old new; do
    sed -E 's/, "cached": (true|false), "result": /, "result": /' \
      "$tmp/$side" > "$tmp/$side.results"
    mv "$tmp/$side.results" "$tmp/$side"
  done
}

drift=0
responses=0
# Counts the exit codes and responses of the runs left in $tmp/old and
# $tmp/new under the pass label $1.
tally() {
  if ! cmp -s "$tmp/old.exit" "$tmp/new.exit"; then
    echo "DRIFT: $1 exit $(cat "$tmp/old.exit") $(cat "$tmp/new.exit")"
    drift=$((drift + 1))
  fi
  lines=$(compare "$1" "$tmp/old" "$tmp/new")
  if [ -n "$lines" ]; then
    echo "$lines"
    drift=$((drift + $(echo "$lines" | wc -l)))
  fi
  responses=$((responses + $(wc -l < "$tmp/old")))
}

for threads in 1 4; do
  run "$old" "$threads" "$tmp/old"
  run "$new" "$threads" "$tmp/new"
  if [ "$threads" -gt 1 ]; then drop_cached; fi
  tally "$threads"
done

mkdir "$tmp/old.dir" "$tmp/new.dir"
run "$old" 1 "$tmp/old.fill" --cache-dir "$tmp/old.dir"
run "$new" 1 "$tmp/new.fill" --cache-dir "$tmp/new.dir"
run "$old" 4 "$tmp/old" --cache-dir "$tmp/new.dir"
run "$new" 4 "$tmp/new" --cache-dir "$tmp/old.dir"
for side in old new; do
  # The closing stats line (id 33) of a restart that routed nothing.
  if ! awk -F'\t' '$1 == 33 && /"routed": 0,/ { ok = 1 } END { exit !ok }' \
      "$tmp/$side"; then
    echo "DRIFT: persist $side routed"
    drift=$((drift + 1))
  fi
done
drop_cached
tally persist

echo "compare_serve: $drift of $responses responses drifted"
[ "$drift" -eq 0 ]
