// Command atsperf is the repository's performance ledger.  It drives the
// analysis pipeline from outside, through the public functions of each
// module, on four workloads whose inputs come from a seed:
//
//	fuzz-cold     conformance oracle sweep against an empty result cache
//	fuzz-warm     the same sweep replayed from a filled result cache
//	scale-stream  16384-rank worlds through spool, k-way merge and the
//	              streaming analyzer
//	atsd-mixed    closed-loop clients against an in-process atsd
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) does the same work with spans around every layer call and
// prints the per-layer metrics.  Either way the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}, ...}}
//
// Usage:
//
//	atsperf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--smoke]
//	atsperf compare [-bench BENCHMARK.json] BEFORE_DIR AFTER_DIR
//
// compare reads one <workload>.jsonl file of result lines per workload from
// each directory and judges every metric by its bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric the program prints.  BENCHMARK.json lists
// the same names and units (checked by TestMetricTablesMatchBenchmark) and
// adds the direction and the regression bound.
type metricDef struct{ name, unit string }

// endToEnd are printed by untraced runs.  items_per_s counts the
// workload's own item: a checked case (fuzz-*), a trace event
// (scale-stream) or an HTTP request (atsd-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"live_heap_p99_mib", "MiB"},
}

// perLayer are printed by traced runs.  A layer a workload bypasses reads
// 0.  Shares (.frac) divide a layer's self time by the lane time of the
// traced rounds (lanes × wall), except the atsd replay shares, which
// divide a replayed call's mean time by the mean latency of the request
// kind that makes it.  The latency item is a case's job, a whole world
// (scale-stream) or a request.
var perLayer = []metricDef{
	{"remainder_frac", "frac"},
	{"trace_overhead_frac", "frac"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"latency_samples", "count"},
	{"conformance.generate.frac", "frac"},
	{"conformance.check_miss.frac", "frac"},
	{"conformance.check_hit.frac", "frac"},
	{"conformance.events_per_case", "events/case"},
	{"campaign.busy_frac", "frac"},
	{"campaign.sink_wait_frac", "frac"},
	{"rescache.hit_ratio", "frac"},
	{"rescache.get_per_s", "1/s"},
	{"rescache.put_per_s", "1/s"},
	{"mpi.dispatch.frac", "frac"},
	{"mpi.events_per_s.p1024", "events/s"},
	{"mpi.events_per_s.p16384", "events/s"},
	{"trace.record.frac", "frac"},
	{"trace.merge.frac", "frac"},
	{"trace.spool_bytes_per_event", "B/event"},
	{"analyzer.add.frac", "frac"},
	{"analyzer.finish.frac", "frac"},
	{"analyzer.allocs_per_event", "allocs/event"},
	{"profile.build.frac", "frac"},
	{"profile.hash.frac", "frac"},
	{"server.case_fresh.frac", "frac"},
	{"server.case_dup.frac", "frac"},
	{"server.trace.frac", "frac"},
	{"server.similar.frac", "frac"},
	{"server.dedup_hit_ratio", "frac"},
	{"server.rejected", "count"},
	{"conformance.case_profile.frac", "frac"},
	{"regress.put.frac", "frac"},
	{"regress.compare.frac", "frac"},
	{"similarity.cluster.frac", "frac"},
	{"server.overhead.frac", "frac"},
	{"regress.similar.frac", "frac"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return cmdCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("atsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "run size: this many seconds of work at the reference rate (at least three rounds; a run stops after twice this long)")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
	spans := fs.String("spans", "", "traced run: write the spans here as JSON and as an ATS1 trace (FILE.ats)")
	smoke := fs.Bool("smoke", false, "run about 1% of the workload (a harness check, not a measurement)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || (*spans != "" && *traced != 1) {
		fmt.Fprintf(stderr, "atsperf: want --workload one of %s, --trace 0 or 1, and --spans only with --trace 1\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp("", "atsperf-")
	if err != nil {
		fmt.Fprintf(stderr, "atsperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		smoke:   *smoke,
		workers: min(2, runtime.NumCPU()),
		dir:     dir,
	}
	res, tr, err := measure(newWorkload, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "atsperf: %s: %v\n", *name, err)
		return 1
	}
	if *spans != "" {
		if err := tr.write(*spans, *name, *seed); err != nil {
			fmt.Fprintf(stderr, "atsperf: write spans: %v\n", err)
			return 1
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "atsperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
