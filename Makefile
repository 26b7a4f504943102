# Developer / CI entry points for the ATS-Go reproduction.
#
#   make check   — everything CI runs: vet (go vet plus a gofmt gate that
#                  fails on any unformatted file), build, tests (incl.
#                  -race), and the regression smoke against the committed
#                  seed baseline under testdata/regress-store.
#   make smoke   — just the regression smoke: regenerate the Fig 3.5
#                  profile and diff it against the committed baseline
#                  (non-zero exit on drift).
#   make fuzz    — conformance-fuzzer smoke: a fixed-seed atsfuzz run, a
#                  perturbed (robustness-axis) run, a replay of the
#                  committed corpus, and 10 s each of native fuzzing of
#                  the trace event codec, of the ATSC spool reader and
#                  of the canonical profile encoder (CI's second job),
#                  each new input minimized for at most 1 s so
#                  minimizing cannot eat the 10 s budget.
#   make baseline— re-seed testdata/regress-store from a fresh run (only
#                  after an intentional severity change; commit the result).
#   make docs    — documentation conformance: every relative markdown link
#                  resolves, and the README command-line reference matches
#                  the flags the cmd/ binaries define.
#   make server-smoke — end-to-end atsd smoke: start the analysis server
#                  on a temp store, submit a conformance case and a
#                  streamed ATSC upload, verify dedup caching, and verify
#                  injected drift fails the client with exit 1.
#   make cache-smoke — result-cache smoke: run a seeded atsfuzz sweep
#                  and a perturbed one twice each against one cache (warm
#                  pass must hit >=95% and print byte-identical stdout),
#                  check the cold perturbed write count is the same at
#                  the default -j and at -j 1, run two concurrent sweeps
#                  over one shared cache (each stdout byte-identical to
#                  the cold run), and exercise `atsfuzz cache gc`.
#   make similar-smoke — similarity-index smoke: index a copy of the
#                  committed seed store plus generated profiles, assert
#                  `atsregress similar` top-1 self-match, recall >= 0.9
#                  vs brute force on 500 synthetic profiles, and
#                  rebuild == incremental update of the persistent log.
#   make asl-smoke — ASL scenario-pipeline smoke: register the scenario
#                  committed in examples/catalog.asl via `atsrun -asl`,
#                  check the declared detection, read the run's trace
#                  back through `atsanalyze -asl` and `atstrace`, and
#                  sweep it through `atsfuzz run -asl`.
#   make atsperf-test — vet and test the benchmark module under atsperf/
#                  (its own go.mod, so the root `go test ./...` never
#                  compiles it against the packages it drives).

GO ?= go
STORE := testdata/regress-store
FIG35 := fig35_two_communicators.json
CORPUS := testdata/conformance-corpus
FUZZ_SEEDS ?= 100

.PHONY: check vet build test race smoke fuzz baseline docs server-smoke cache-smoke similar-smoke asl-smoke atsperf-test

check: vet build test race smoke docs

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .) && if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/atsbench -only fig35 -profiles "$$tmp" >/dev/null && \
	$(GO) run ./cmd/atsregress check -store $(STORE) "$$tmp/$(FIG35)"

fuzz:
	$(GO) run ./cmd/atsfuzz run -seeds $(FUZZ_SEEDS) -start 1
	$(GO) run ./cmd/atsfuzz run -seeds 20 -start 1 -perturb
	$(GO) run ./cmd/atsfuzz replay $(CORPUS)/*.json
	$(GO) test -run '^$$' -fuzz '^FuzzEventCodec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzChunkReader$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzProfileEncoding$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/profile

baseline:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/atsbench -only fig35 -profiles "$$tmp" >/dev/null && \
	$(GO) run ./cmd/atsregress save -store $(STORE) "$$tmp/$(FIG35)"

docs:
	$(GO) test -run '^TestDocs' .

server-smoke:
	GO="$(GO)" sh scripts/server-smoke.sh

cache-smoke:
	GO="$(GO)" sh scripts/cache-smoke.sh

similar-smoke:
	GO="$(GO)" sh scripts/similar-smoke.sh

asl-smoke:
	GO="$(GO)" sh scripts/asl-smoke.sh

atsperf-test:
	cd atsperf && $(GO) vet ./... && $(GO) test ./...
