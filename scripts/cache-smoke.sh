#!/usr/bin/env sh
# End-to-end smoke of the result cache (internal/rescache) at the
# atsfuzz CLI surface.  Proves the tentpole contract on a real binary:
#
#   1. a warm `atsfuzz run -cache` sweep re-serves >=95% of its results
#      from the cache and prints byte-identical stdout to the cold run;
#   2. the same holds for a perturbed (-perturb) sweep over a fresh
#      cache, whose entries are CheckRobust's per-level verdicts and the
#      noise-floor calibrations; its cold run writes as many entries at
#      the default -j as at -j 1 (each calibration cell is computed and
#      written once, however many workers need it);
#   3. two concurrent sweeps sharing one fresh cache each print
#      byte-identical stdout to the single cold run;
#   4. `atsfuzz cache gc` keeps a healthy cache intact and collects a
#      corrupted entry;
#   5. a warm run after gc still hits.
#
# Run via `make cache-smoke`.
set -eu

GO=${GO:-go}
SEEDS=${CACHE_SMOKE_SEEDS:-20}

tmp=$(mktemp -d)
bin="$tmp/bin"
cache="$tmp/cache"
mkdir -p "$bin"

cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT INT TERM

echo "== building atsfuzz"
$GO build -o "$bin" ./cmd/atsfuzz

run_sweep() { # extra-args... ; writes stdout to $1, stderr to $2
    out=$1; err=$2; shift 2
    "$bin/atsfuzz" run -seeds "$SEEDS" -start 1 -v "$@" >"$out" 2>"$err"
}

echo "== cold sweep ($SEEDS seeds, empty cache)"
run_sweep "$tmp/cold.out" "$tmp/cold.err" -cache "$cache"
grep 'rescache:' "$tmp/cold.err"

echo "== warm sweep (same cache)"
run_sweep "$tmp/warm.out" "$tmp/warm.err" -cache "$cache"
grep 'rescache:' "$tmp/warm.err"

echo "== warm stdout must be byte-identical to cold"
cmp "$tmp/cold.out" "$tmp/warm.out"

check_hit_rate() { # stderr-file: the run's hit rate must be >= 95%
    # stderr line: "rescache: H hits, M misses, P writes (R% hit rate) at DIR"
    hits=$(sed -n 's/^rescache: \([0-9]*\) hits.*/\1/p' "$1")
    misses=$(sed -n 's/^rescache: [0-9]* hits, \([0-9]*\) misses.*/\1/p' "$1")
    total=$((hits + misses))
    [ "$total" -gt 0 ] || { echo "no cache traffic on warm run" >&2; exit 1; }
    pct=$((hits * 100 / total))
    echo "   $hits hits / $total lookups = ${pct}%"
    [ "$pct" -ge 95 ] || { echo "warm hit rate ${pct}% < 95%" >&2; exit 1; }
}

echo "== warm hit rate must be >= 95%"
check_hit_rate "$tmp/warm.err"

echo "== perturbed sweep: cold, then warm over the same fresh cache"
"$bin/atsfuzz" run -seeds 10 -start 1 -perturb -v -cache "$tmp/cache3" \
    >"$tmp/pcold.out" 2>"$tmp/pcold.err"
grep 'rescache:' "$tmp/pcold.err"
"$bin/atsfuzz" run -seeds 10 -start 1 -perturb -v -cache "$tmp/cache3" \
    >"$tmp/pwarm.out" 2>"$tmp/pwarm.err"
grep 'rescache:' "$tmp/pwarm.err"
cmp "$tmp/pcold.out" "$tmp/pwarm.out"
check_hit_rate "$tmp/pwarm.err"

writes() { # stderr-file: the run's cache write count
    sed -n 's/^rescache: .* misses, \([0-9]*\) writes.*/\1/p' "$1"
}

echo "== cold perturbed sweep writes as many entries at the default -j as at -j 1"
"$bin/atsfuzz" run -seeds 10 -start 1 -perturb -v -j 1 -cache "$tmp/cache4" \
    >"$tmp/pseq.out" 2>"$tmp/pseq.err"
cmp "$tmp/pcold.out" "$tmp/pseq.out"
echo "   default -j: $(writes "$tmp/pcold.err") writes, -j 1: $(writes "$tmp/pseq.err") writes"
[ "$(writes "$tmp/pcold.err")" = "$(writes "$tmp/pseq.err")" ] || {
    echo "cold perturbed write count depends on -j" >&2; exit 1; }

echo "== two concurrent sweeps over one fresh cache must each match the cold run"
run_sweep "$tmp/conc1.out" "$tmp/conc1.err" -cache "$tmp/cache2" &
pid1=$!
run_sweep "$tmp/conc2.out" "$tmp/conc2.err" -cache "$tmp/cache2" &
pid2=$!
wait "$pid1"
wait "$pid2"
cmp "$tmp/cold.out" "$tmp/conc1.out"
cmp "$tmp/cold.out" "$tmp/conc2.out"

echo "== cache gc keeps a healthy cache"
"$bin/atsfuzz" cache gc -dir "$cache" | tee "$tmp/gc.out"
grep 'removed 0 stale' "$tmp/gc.out"

echo "== cache gc collects a corrupted entry"
victim=$(find "$cache/objects" -name '*.json' | head -1)
echo garbage >"$victim"
"$bin/atsfuzz" cache gc -dir "$cache" | grep 'removed 1 stale'

echo "== post-gc warm sweep still serves hits and identical bytes"
run_sweep "$tmp/post.out" "$tmp/post.err" -cache "$cache"
cmp "$tmp/cold.out" "$tmp/post.out"
grep 'rescache:' "$tmp/post.err"

echo "== cache smoke OK"
