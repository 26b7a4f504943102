package profile_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/profile"
	"repro/internal/trace"
)

// poisonableReport builds a minimal healthy analyzer report whose
// fields the table tests below poison one at a time.
func poisonableReport() *analyzer.Report {
	return &analyzer.Report{
		TotalTime: 10,
		Duration:  2.5,
		Threshold: 0.005,
		Results: map[string]*analyzer.Result{
			analyzer.PropLateSender: {
				Property:  analyzer.PropLateSender,
				Wait:      0.5,
				Severity:  0.05,
				Instances: 3,
				ByPath:    map[string]float64{"main/send": 0.5},
				ByLocation: map[trace.Location]float64{
					{Rank: 0, Thread: 0}: 0.2,
					{Rank: 1, Thread: 0}: 0.3,
				},
			},
		},
	}
}

// TestFromAnalysisRejectsNonFinite is the regression test for poisoned
// profiles entering the pipeline: a NaN or Inf anywhere in the report
// must be rejected at extraction, because every tolerance comparison
// downstream is NaN-blind and would gate the profile "clean".
func TestFromAnalysisRejectsNonFinite(t *testing.T) {
	info := profile.TraceInfo{Ranks: 2, Threads: 1, Events: 16}
	for _, tc := range []struct {
		name   string
		poison func(r *analyzer.Report)
		detail string // substring the error must carry
	}{
		{"NaN wait", func(r *analyzer.Report) {
			r.Results[analyzer.PropLateSender].Wait = math.NaN()
		}, "wait for late_sender"},
		{"+Inf wait", func(r *analyzer.Report) {
			r.Results[analyzer.PropLateSender].Wait = math.Inf(1)
		}, "wait for late_sender"},
		{"NaN severity", func(r *analyzer.Report) {
			r.Results[analyzer.PropLateSender].Severity = math.NaN()
		}, "severity for late_sender"},
		{"NaN path wait", func(r *analyzer.Report) {
			r.Results[analyzer.PropLateSender].ByPath["main/send"] = math.NaN()
		}, "path wait for late_sender"},
		{"-Inf location wait", func(r *analyzer.Report) {
			r.Results[analyzer.PropLateSender].ByLocation[trace.Location{Rank: 1}] = math.Inf(-1)
		}, "location wait for late_sender at 1.0"},
		{"NaN duration", func(r *analyzer.Report) { r.Duration = math.NaN() }, "duration"},
		{"Inf total time", func(r *analyzer.Report) { r.TotalTime = math.Inf(1) }, "total time"},
		{"NaN message rate", func(r *analyzer.Report) { r.Messages.Rate = math.NaN() }, "message rate"},
		{"NaN threshold", func(r *analyzer.Report) { r.Threshold = math.NaN() }, "threshold"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := poisonableReport()
			tc.poison(rep)
			_, err := profile.FromAnalysis("poisoned", info, rep, profile.RunInfo{})
			if err == nil {
				t.Fatal("poisoned report produced a profile")
			}
			if !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("error %q does not name the poisoned field (%q)", err, tc.detail)
			}
		})
	}

	// And the healthy report still extracts.
	if _, err := profile.FromAnalysis("healthy", info, poisonableReport(), profile.RunInfo{}); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
}

// TestDecodeRejectsNonFinite: Go's JSON encoder cannot emit NaN, but a
// hand-crafted profile file can carry one through other tools; Decode
// must reject it before it reaches the store.
func TestDecodeRejectsNonFinite(t *testing.T) {
	// JSON has no NaN literal, so a poisoned file would use a huge
	// exponent or be patched binary; emulate by decoding a profile and
	// checking the validator directly through Decode's error path with
	// a number JSON *can* express being rejected is not possible — so
	// construct the profile in memory and verify Marshal refuses it
	// (the canonical encoding is the only thing a store ever writes).
	p := &profile.Profile{
		Schema:     profile.SchemaVersion,
		Experiment: "poisoned",
		TotalTime:  1,
		Properties: []profile.Property{{Name: "late_sender", Wait: math.NaN()}},
	}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("Marshal encoded a NaN wait")
	}
	if _, err := p.Hash(); err == nil {
		t.Fatal("Hash succeeded on a NaN wait")
	}
}
