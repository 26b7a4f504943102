#!/usr/bin/env sh
# End-to-end smoke of the ASL scenario pipeline (doc/ASL.md) at the CLI
# surface, on the scenario committed in examples/catalog.asl:
#
#   1. `atsrun -asl` registers the catalog's scenario next to the
#      built-ins (visible in -list);
#   2. the analyzer detects the scenario's declared property and its
#      companion on a run;
#   3. the trace that run wrote with `atsrun -trace` reads back through
#      `atsanalyze -asl` (same detection) and `atstrace`;
#   4. `atsrun` prints byte-identical reports run plain, with -stream
#      and with -stream -trace, for the catalog scenario, a pure-OpenMP
#      and a hybrid property;
#   5. `atsfuzz run -asl` accepts the catalog into the fuzzed pool,
#      draws the scenario, and the oracle passes every case — so the
#      scenario's registered detection and companions are exercised at
#      the CLI, not only registered.
#
# Engine byte-identity of ASL scenarios is checked in-tree by
# TestASLScenarioEngineDiff (internal/conformance).
#
# Run via `make asl-smoke`.
set -eu

GO=${GO:-go}
CATALOG=examples/catalog.asl
SCENARIO=ramped_exchange

tmp=$(mktemp -d)
bin="$tmp/bin"
mkdir -p "$bin"

cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT INT TERM

echo "== building atsrun, atsanalyze, atstrace and atsfuzz"
$GO build -o "$bin" ./cmd/atsrun ./cmd/atsanalyze ./cmd/atstrace ./cmd/atsfuzz

echo "== catalog scenario registers next to the built-ins"
"$bin/atsrun" -asl "$CATALOG" -list >"$tmp/list.out" 2>"$tmp/list.err"
grep "registered ASL scenarios: $SCENARIO" "$tmp/list.err"
grep "^$SCENARIO " "$tmp/list.out"

echo "== analyzer detects the declared property and its companion"
"$bin/atsrun" -asl "$CATALOG" -property "$SCENARIO" -procs 4 -trace "$tmp/run.atsc" >"$tmp/run.out" 2>/dev/null
grep 'late_sender' "$tmp/run.out"
grep 'wait_at_mpi_barrier' "$tmp/run.out"

echo "== atsanalyze and atstrace read the trace atsrun wrote"
"$bin/atsanalyze" -asl "$CATALOG" "$tmp/run.atsc" >"$tmp/analyze.out"
grep 'late_sender' "$tmp/analyze.out"
grep 'wait_at_mpi_barrier' "$tmp/analyze.out"
"$bin/atstrace" "$tmp/run.atsc" >"$tmp/trace.out"
grep 'timeline:' "$tmp/trace.out"

echo "== atsrun stdout is identical plain, -stream and -stream -trace"
run() { "$bin/atsrun" -asl "$CATALOG" -property "$prop" -procs 4 "$@" 2>/dev/null; }
for prop in "$SCENARIO" imbalance_at_omp_barrier hybrid_omp_imbalance_causes_late_sender; do
	run >"$tmp/$prop.plain"
	run -stream >"$tmp/$prop.stream"
	run -stream -trace "$tmp/$prop.atsc" >"$tmp/$prop.spool"
	test -s "$tmp/$prop.plain"
	test -s "$tmp/$prop.atsc"
	cmp "$tmp/$prop.plain" "$tmp/$prop.stream"
	cmp "$tmp/$prop.plain" "$tmp/$prop.spool"
done

echo "== atsfuzz draws the scenario and the oracle passes every case"
"$bin/atsfuzz" run -v -seeds 10 -start 1 -asl "$CATALOG" >"$tmp/fuzz.out" 2>"$tmp/fuzz.err"
grep "registered 1 ASL scenario(s)" "$tmp/fuzz.err"
grep "^ok .*[[ ]$SCENARIO[] ]" "$tmp/fuzz.out"
grep "checked 10 cases: 0 failing" "$tmp/fuzz.out"

echo "== asl smoke OK"
