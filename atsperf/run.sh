#!/bin/sh
# Builds the atsperf benchmark from source and runs it with the given
# arguments, e.g.
#
#   sh atsperf/run.sh --workload fuzz-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the repository root):
# the Go build cache, the binary, and the temporary stores and spools.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

# HOME and XDG_CONFIG_HOME keep the go command's config and telemetry
# files inside the build directory; GOPROXY=off because the module has
# no dependency outside the repository.
(
	cd "$root/atsperf"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off \
		go build -o "$out/atsperf" .
) >&2

TMPDIR="$out/tmp" exec "$out/atsperf" "$@"
