package asl

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
)

// lateSenderReport produces a report with a known late-sender wait.
func lateSenderReport(t *testing.T) *analyzer.Report {
	t.Helper()
	tr, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
		core.LateSender(c, 0.01, 0.05, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	return analyzer.Analyze(tr, analyzer.Options{})
}

func TestParseAndEvalBasicProperty(t *testing.T) {
	rep := lateSenderReport(t)
	src := `
	// ASL-style restatement of the late sender property.
	property dominant_late_sender {
	    condition severity("late_sender") > 0.05 &&
	              wait("late_sender") > 2 * wait("late_receiver");
	    severity  severity("late_sender");
	}
	`
	fs, err := EvalAll(src, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("findings = %d", len(fs))
	}
	f := fs[0]
	if !f.Holds {
		t.Error("property does not hold on a late-sender trace")
	}
	if math.Abs(f.Severity-rep.Severity(analyzer.PropLateSender)) > 1e-12 {
		t.Errorf("severity %v != report severity %v", f.Severity, rep.Severity(analyzer.PropLateSender))
	}
}

func TestConditionFalseOnCleanTrace(t *testing.T) {
	tr, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
		core.NegativeBalancedMPI(c, 0.02, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := EvalAll(`property ls { condition severity("late_sender") > 0.01; }`, analyzer.Analyze(tr, analyzer.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if fs[0].Holds {
		t.Error("late-sender property holds on a balanced trace")
	}
	// Default severity is 1 per the ASL convention, reported regardless.
	if fs[0].Severity != 1 {
		t.Errorf("default severity = %v", fs[0].Severity)
	}
}

func TestMetricFunctions(t *testing.T) {
	rep := lateSenderReport(t)
	cases := []struct {
		expr string
		want bool
	}{
		{`total_time() > 0`, true},
		{`duration() > 0 && duration() <= total_time()`, true},
		{`locations() == 4`, true},
		{`region_count("MPI_Recv") == 10`, true}, // 2 receivers × 5 reps
		{`region_time("MPI_Recv") > 0.4`, true},  // ≈ 2×5×0.05 of waiting
		{`instances("late_sender") == 10`, true},
		{`wait("no_such_property") == 0`, true},
		{`region_time("no_such_region") == 0`, true},
		{`!(severity("late_sender") < 0.01)`, true},
		{`1 + 2 * 3 == 7`, true},
		{`(1 + 2) * 3 == 9`, true},
		{`-2 < -1`, true},
		{`4 / 2 == 2 && 1 != 2`, true},
		{`severity("late_sender") >= 1`, false},
	}
	m := FromReport(rep)
	for _, tc := range cases {
		props, err := Parse("property p { condition " + tc.expr + "; }")
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		f, err := props[0].Eval(m)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if f.Holds != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, f.Holds, tc.want)
		}
	}
}

func TestMultipleProperties(t *testing.T) {
	rep := lateSenderReport(t)
	src := `
	property a { condition wait("late_sender") > 0; severity 0.5; }
	property b { condition wait("late_receiver") > 0; severity 0.25; }
	`
	fs, err := EvalAll(src, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("findings = %d", len(fs))
	}
	if !fs[0].Holds || fs[0].Severity != 0.5 {
		t.Errorf("a = %+v", fs[0])
	}
	if fs[1].Holds {
		t.Errorf("b holds without late receivers")
	}
}

func TestShortCircuit(t *testing.T) {
	rep := lateSenderReport(t)
	// The right-hand side would error (bad function), but must not be
	// evaluated.
	src := `property p { condition 1 > 0 || bogus("x") > 0; }`
	fs, err := EvalAll(src, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !fs[0].Holds {
		t.Error("short-circuit || failed")
	}
	src = `property p { condition 1 > 2 && bogus("x") > 0; }`
	fs, err = EvalAll(src, rep)
	if err != nil {
		t.Fatal(err)
	}
	if fs[0].Holds {
		t.Error("short-circuit && failed")
	}
}

func TestDivisionByZeroYieldsZero(t *testing.T) {
	rep := lateSenderReport(t)
	fs, err := EvalAll(`property p { condition 1 / 0 == 0; }`, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !fs[0].Holds {
		t.Error("division by zero should evaluate to 0")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                               // empty
		`property`,                       // truncated
		`property p { }`,                 // missing condition
		`property p { condition 1 > 0 }`, // missing semicolon
		`property p { condition 1 > 0; bogus 1; }`,                        // unknown clause
		`property p { condition "str"; }`,                                 // non-boolean condition is an eval error, but parse passes — tested below
		`property p { condition 1 > 0; } property p { condition 1 > 0; }`, // duplicate
		`property p { condition wait(; }`,                                 // malformed call
		`property p { condition wait("x" ; }`,                             // unclosed call
		`property p { condition name; }`,                                  // bare identifier
		`property p { condition 1 @ 2; }`,                                 // bad character
		`property p { condition "unterminated; }`,                         // unterminated string
		`property p { condition 1 > 0; condition 1 > 0; }`,                // duplicate clause
	}
	for _, src := range bad {
		if src == `property p { condition "str"; }` {
			continue
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("parse accepted %q", src)
		}
	}
}

func TestEvalTypeErrors(t *testing.T) {
	rep := lateSenderReport(t)
	bad := []string{
		`property p { condition "str"; }`,                 // string condition
		`property p { condition 5; }`,                     // numeric condition
		`property p { condition 1 > 0; severity 1 > 0; }`, // boolean severity
		`property p { condition -( 1 > 0 ) == 1; }`,       // unary minus on bool
		`property p { condition !(1) ; }`,                 // ! on number
		`property p { condition (1 > 0) + 1 == 1; }`,      // bool arithmetic
		`property p { condition wait(1) > 0; }`,           // non-string arg
		`property p { condition total_time("x") > 0; }`,   // spurious arg
		`property p { condition bogus("x") > 0; }`,        // unknown function
		`property p { condition (1 > 0) && 3; }`,          // number in &&
	}
	for _, src := range bad {
		fs, err := EvalAll(src, rep)
		if err == nil {
			t.Errorf("eval accepted %q -> %+v", src, fs)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
	# hash comment
	// slash comment
	property   spaced   {
	    condition    total_time()>0   ;   # trailing comment
	}
	`
	props, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if props[0].Name != "spaced" {
		t.Errorf("name = %q", props[0].Name)
	}
}

func TestScientificNumbers(t *testing.T) {
	rep := lateSenderReport(t)
	fs, err := EvalAll(`property p { condition 1.5e-3 < 2E-3 && 1e3 == 1000; }`, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !fs[0].Holds {
		t.Error("scientific notation mis-evaluated")
	}
}

func TestUserCatalogAgainstCompositeProgram(t *testing.T) {
	// A user-style ASL catalog checked against the Fig 3.3 composite.
	tr, err := mpi.Run(mpi.Options{Procs: 8}, func(c *mpi.Comm) {
		core.CompositeAllMPI(c, core.DefaultComposite())
	})
	if err != nil {
		t.Fatal(err)
	}
	src := `
	property p2p_problems {
	    condition wait("late_sender") + wait("late_receiver") > 0.1;
	    severity  (wait("late_sender") + wait("late_receiver")) / total_time();
	}
	property collective_problems {
	    condition wait("late_broadcast") > 0 && wait("early_reduce") > 0;
	    severity  (wait("late_broadcast") + wait("early_reduce") + wait("wait_at_nxn")) / total_time();
	}
	property startup_dominates {
	    condition region_time("MPI_Init") / total_time() > 0.5;
	    severity  region_time("MPI_Init") / total_time();
	}
	`
	fs, err := EvalAll(src, analyzer.Analyze(tr, analyzer.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Finding{}
	for _, f := range fs {
		byName[f.Name] = f
	}
	if !byName["p2p_problems"].Holds {
		t.Error("p2p_problems should hold on the composite")
	}
	if !byName["collective_problems"].Holds {
		t.Error("collective_problems should hold on the composite")
	}
	if byName["startup_dominates"].Holds {
		t.Error("startup should not dominate the composite")
	}
	if s := byName["collective_problems"].Severity; s <= 0 || s >= 1 {
		t.Errorf("collective severity = %v", s)
	}
}

func TestParseErrorMessagesMentionLine(t *testing.T) {
	_, err := Parse("property p {\n  condition 1 @@ 2;\n}")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v lacks line info", err)
	}
}

func TestMessageStatFunctions(t *testing.T) {
	rep := lateSenderReport(t)
	// 2 sender pairs × 5 reps = 10 messages of 2048 bytes (256 doubles).
	cases := []struct {
		expr string
		want bool
	}{
		{`msg_count() == 10`, true},
		{`msg_bytes() == 10 * 2048`, true},
		{`msg_avg_bytes() == 2048`, true},
		{`msg_rate() > 0`, true},
	}
	m := FromReport(rep)
	for _, tc := range cases {
		props, err := Parse("property p { condition " + tc.expr + "; }")
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		f, err := props[0].Eval(m)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if f.Holds != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, f.Holds, tc.want)
		}
	}
}

func TestMetricFuncsAllEvaluate(t *testing.T) {
	// Every name exported in MetricFuncs must be callable; the list is
	// what doc/ASL.md is drift-checked against.
	rep := lateSenderReport(t)
	m := FromReport(rep)
	takesString := map[string]bool{
		"wait": true, "severity": true, "instances": true,
		"region_time": true, "region_count": true,
	}
	for _, name := range MetricFuncs {
		arg := "()"
		if takesString[name] {
			arg = `("late_sender")`
		}
		props, err := Parse("property p { condition " + name + arg + " >= 0; }")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := props[0].Eval(m); err != nil {
			t.Errorf("%s does not evaluate: %v", name, err)
		}
	}
}

func TestGrindstoneDiagnosisInASL(t *testing.T) {
	// The small-message flood diagnosis, written as an ASL property.
	tr, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
		c.Begin("flood")
		buf := mpi.AllocBuf(mpi.TypeInt, 1)
		if c.Rank() == 0 {
			for i := 0; i < 60; i++ {
				c.Recv(buf, mpi.AnySource, 1)
			}
		} else {
			for i := 0; i < 20; i++ {
				c.Send(buf, 0, 1)
			}
		}
		c.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	src := `
	property latency_bound_messaging {
	    condition msg_count() > 50 && msg_avg_bytes() < 64;
	    severity  region_time("MPI_Recv") / total_time();
	}
	`
	fs, err := EvalAll(src, analyzer.Analyze(tr, analyzer.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !fs[0].Holds {
		t.Error("latency-bound messaging not diagnosed")
	}
}

func TestShippedExampleCatalogParses(t *testing.T) {
	src, err := os.ReadFile("../../examples/catalog.asl")
	if err != nil {
		t.Fatal(err)
	}
	props, err := Parse(string(src))
	if err != nil {
		t.Fatalf("shipped catalog does not parse: %v", err)
	}
	if len(props) < 5 {
		t.Errorf("catalog has only %d properties", len(props))
	}
	// It must evaluate cleanly against a real report.
	rep := lateSenderReport(t)
	fs, err := EvalAll(string(src), rep)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Finding{}
	for _, f := range fs {
		byName[f.Name] = f
	}
	if !byName["dominant_p2p_waiting"].Holds {
		t.Error("dominant_p2p_waiting should hold on a late-sender trace")
	}
	if byName["omp_thread_waiting"].Holds {
		t.Error("omp_thread_waiting should not hold on an MPI-only trace")
	}
}
