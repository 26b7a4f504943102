package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// loadRuns reads the result lines (lines starting with "{") of one
// workload's runs, in run order.
func loadRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// values returns one metric's value from every run that reports it.
func values(runs []result, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// cmdCompare judges the runs in AFTER_DIR against those in BEFORE_DIR,
// one <workload>.jsonl per workload, metric by metric (see judge).  It
// exits 1 when an end-to-end metric regressed beyond its bound.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: atsperf compare [-bench BENCHMARK.json] BEFORE_DIR AFTER_DIR")
		return 2
	}
	spec, err := loadSpec(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "atsperf compare: %v\n", err)
		return 2
	}
	regressed := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbefore median [q1, q3]\tafter median [q1, q3]\twins/pairs\tbound\tverdict")
	for _, w := range spec.Workloads {
		var sides [2][]result
		missing := 0
		for i, dir := range fs.Args() {
			runs, err := loadRuns(filepath.Join(dir, w.Name+".jsonl"))
			switch {
			case errors.Is(err, os.ErrNotExist):
				missing++
			case err != nil:
				fmt.Fprintf(stderr, "atsperf compare: %v\n", err)
				return 2
			}
			sides[i] = runs
		}
		if missing == 2 {
			continue
		}
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			before, after := values(sides[0], m.Name), values(sides[1], m.Name)
			if len(before) == 0 && len(after) == 0 {
				continue
			}
			higher := m.Better == "higher"
			v := judge(before, after, higher, m.Bound)
			if v == verdictRegressed {
				regressed = true
			}
			wins, _, pairs := pairWins(before, after, higher)
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\t%s\n",
				w.Name, m.Name, summary(before, m.Unit), summary(after, m.Unit), wins, pairs, bound, v)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

// summary renders median and quartiles of one side.
func summary(vs []float64, unit string) string {
	if len(vs) == 0 {
		return "(no runs)"
	}
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] n=%d", q2, unit, q1, q3, len(vs))
}
