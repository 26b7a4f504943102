package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conformance"
)

// TestSmoke runs about 1% of every workload, untraced and traced, and
// checks the outputs and that every defined metric is printed.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"fuzz-cold", "fuzz-warm", "scale-stream", "atsd-mixed"} {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, traced: traced, smoke: true, workers: 2, dir: t.TempDir()}
			res, _, err := measure(workloads[name], cfg, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minRounds {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, d.name, m.Value)
				}
			}
		}
	}
}

// TestSpansExport checks that a traced run's spans can be written as JSON
// and as an ATS1 trace.
func TestSpansExport(t *testing.T) {
	dir := t.TempDir()
	cfg := config{seed: 1, traced: true, smoke: true, workers: 2, dir: dir}
	_, tr, err := measure(workloads["scale-stream"], cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spans.json")
	if err := tr.write(path, "scale-stream", 1); err != nil {
		t.Fatal(err)
	}
	var doc spanFile
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &doc); err != nil || len(doc.Lanes) == 0 || len(doc.Lanes[0].Spans) == 0 || doc.Host.NumCPU == 0 {
		t.Fatalf("spans file: %v, %+v", err, doc.Host)
	}
	if fi, err := os.Stat(path + ".ats"); err != nil || fi.Size() == 0 {
		t.Fatalf("ATS1 export: %v", err)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if caseBase(1) == caseBase(2) || caseBase(1) != caseBase(1) {
		t.Error("caseBase must be a function of the seed that separates seeds")
	}
	cases := func(seed uint64) []conformance.Case {
		var cs []conformance.Case
		for i := uint64(0); i < 20; i++ {
			cs = append(cs, conformance.Generate(caseBase(seed)+i, conformance.Config{}))
		}
		return cs
	}
	if !reflect.DeepEqual(cases(4), cases(4)) || reflect.DeepEqual(cases(4), cases(5)) {
		t.Error("case list must repeat for a seed and differ between seeds")
	}
	if scaleSkew(4) != scaleSkew(4) || scaleSkew(4) == scaleSkew(5) {
		t.Error("scale skew must repeat for a seed and differ between seeds")
	}

	schedule := func(seed uint64, client int) []request {
		c := newAtsdClient(seed, client)
		rs := make([]request, 10000)
		for i := range rs {
			rs[i] = c.nextRequest(32)
		}
		return rs
	}
	a := schedule(4, 0)
	if !reflect.DeepEqual(a, schedule(4, 0)) {
		t.Error("request schedule must repeat for a seed")
	}
	if reflect.DeepEqual(a, schedule(5, 0)) || reflect.DeepEqual(a, schedule(4, 1)) {
		t.Error("request schedules must differ between seeds and clients")
	}
	mix := map[string]float64{}
	for _, r := range a {
		mix[r.kind] += 1.0 / float64(len(a))
	}
	for kind, want := range map[string]float64{kindFresh: 0.5, kindDup: 0.2, kindTrace: 0.2, kindSimilar: 0.1} {
		if math.Abs(mix[kind]-want) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", kind, mix[kind], want)
		}
	}
}

// TestMetricTablesMatchBenchmark keeps BENCHMARK.json and the program's
// metric tables in step.
func TestMetricTablesMatchBenchmark(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	before, after := t.TempDir(), t.TempDir()
	line := func(v float64) string {
		blob, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"items_per_s": {Value: v, Unit: "1/s"}}})
		return string(blob) + "\n"
	}
	var b, a strings.Builder
	for _, v := range around(100) {
		b.WriteString("noise before the result line\n" + line(v))
		a.WriteString(line(v * 0.7))
	}
	for dir, content := range map[string]string{before: b.String(), after: a.String()} {
		if err := os.WriteFile(filepath.Join(dir, "fuzz-cold.jsonl"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	code := run([]string{"compare", "-bench", "../BENCHMARK.json", before, after}, &out, &errOut)
	if code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Fatalf("compare: exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}
	if code := run([]string{"compare", "-bench", "../BENCHMARK.json", before, before}, &out, &errOut); code != 0 {
		t.Fatalf("compare against itself: exit %d", code)
	}
}
