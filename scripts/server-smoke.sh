#!/usr/bin/env sh
# End-to-end smoke of the atsd analysis server against a temp store:
# start the daemon, save a baseline from a conformance case and from a
# streamed ATSC spool, prove resubmission hits the dedup cache, and
# prove injected drift fails with exit 1.  Run via `make server-smoke`.
set -eu

ADDR=${ATSD_ADDR:-127.0.0.1:7341}
URL="http://$ADDR"
GO=${GO:-go}
CORPUS=testdata/conformance-corpus

tmp=$(mktemp -d)
bin="$tmp/bin"
mkdir -p "$bin"

cleanup() {
    [ -n "${atsd_pid:-}" ] && kill "$atsd_pid" 2>/dev/null || true
    [ -n "${atsd_pid:-}" ] && wait "$atsd_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== building atsd, atsregress, atsrun"
$GO build -o "$bin" ./cmd/atsd ./cmd/atsregress ./cmd/atsrun

echo "== starting atsd on $ADDR (store $tmp/store)"
"$bin/atsd" -addr "$ADDR" -store "$tmp/store" >"$tmp/atsd.log" 2>&1 &
atsd_pid=$!

for i in $(seq 1 50); do
    if "$bin/atsregress" ping -server "$URL" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$atsd_pid" 2>/dev/null; then
        echo "atsd died during startup:" >&2
        cat "$tmp/atsd.log" >&2
        exit 1
    fi
    sleep 0.2
done
"$bin/atsregress" ping -server "$URL"

echo "== submit conformance case, save as baseline"
"$bin/atsregress" submit -server "$URL" -save "$CORPUS/seed001.json"

echo "== resubmit: must be served from the dedup cache"
out=$("$bin/atsregress" submit -server "$URL" "$CORPUS/seed001.json")
echo "$out"
case "$out" in
*"(cached)"*) ;;
*) echo "FAIL: resubmission was not served from the cache" >&2; exit 1 ;;
esac

echo "== spool a late_sender run, upload the ATSC stream, save as baseline"
"$bin/atsrun" -property late_sender -procs 4 -stream -trace "$tmp/run.atsc" >/dev/null
"$bin/atsregress" submit -server "$URL" -experiment smoke_ls -save "$tmp/run.atsc"

echo "== clean resubmission of the same stream must pass"
"$bin/atsregress" submit -server "$URL" -experiment smoke_ls "$tmp/run.atsc"

echo "== inject drift (5x extrawork): submit must exit 1"
"$bin/atsrun" -property late_sender -procs 4 -set extrawork=0.25 -stream -trace "$tmp/drift.atsc" >/dev/null
if "$bin/atsregress" submit -server "$URL" -experiment smoke_ls "$tmp/drift.atsc"; then
    echo "FAIL: drifted submission did not fail" >&2
    exit 1
else
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: drifted submission exited $rc, want 1" >&2
        exit 1
    fi
fi

echo "== server stats"
"$bin/atsregress" ping -server "$URL"
echo "server-smoke OK"
