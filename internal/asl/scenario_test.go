package asl

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/distr"
	"repro/internal/mpi"
	"repro/internal/omp"
)

const testScenario = `
scenario skewed_pipeline {
    help "late senders feeding a message-size ramp";
    param base  float = 0.005 in [0.001, 0.01];
    param extra float = 0.03  in [0.01, 0.05];
    param r     int   = 3     in [1, 4];
    inject delayed_send(base, extra, r);
    inject ramp_send(256, 8192, r);
    detects "late_sender";
    severity floor(ranks() / 2) * extra * r;
}
`

const testDistrScenario = `
scenario drifting_phase {
    help "distribution-skewed work closing on a barrier";
    param work distr = block2(0.005, 0.03);
    param r    int   = 3 in [1, 5];
    inject skewed_barrier(work, r);
    severity r * imbalance(work);
}
`

func parseScenario(t *testing.T, src string) *Scenario {
	t.Helper()
	f, err := ParseFile(src)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(f.Scenarios) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(f.Scenarios))
	}
	return f.Scenarios[0]
}

// TestScenarioCompiledSpecGolden pins the compiled core.Spec of the
// committed scenario: names, kinds, defaults, fuzz ranges, detection,
// embedded source — the registration contract everything downstream
// (generator, sweeps, conformance, fuzzer) consumes.
func TestScenarioCompiledSpecGolden(t *testing.T) {
	sc := parseScenario(t, testScenario)
	spec := sc.Spec()
	if spec == nil {
		t.Fatal("nil spec after compile")
	}
	if spec.Name != "skewed_pipeline" {
		t.Errorf("spec.Name = %q", spec.Name)
	}
	if spec.Paradigm != core.ParadigmMPI {
		t.Errorf("spec.Paradigm = %v", spec.Paradigm)
	}
	if spec.Help != "late senders feeding a message-size ramp" {
		t.Errorf("spec.Help = %q", spec.Help)
	}
	if sc.Detects != analyzer.PropLateSender {
		t.Errorf("Detects = %q", sc.Detects)
	}
	if sc.Localize != "skewed_pipeline" {
		t.Errorf("Localize = %q", sc.Localize)
	}
	if len(spec.Companions) != 0 {
		t.Errorf("Companions = %v, want none (ramp_send detects nothing)", spec.Companions)
	}
	if !strings.HasPrefix(spec.ASL, "scenario skewed_pipeline {") ||
		!strings.HasSuffix(spec.ASL, "}") {
		t.Errorf("embedded source not the scenario slice: %q", spec.ASL)
	}

	want := []core.Param{
		{Name: "base", Kind: core.ParamFloat, DefFloat: 0.005, MinFloat: 0.001, MaxFloat: 0.01,
			Help: "scenario parameter base"},
		{Name: "extra", Kind: core.ParamFloat, DefFloat: 0.03, MinFloat: 0.01, MaxFloat: 0.05,
			Help: "scenario parameter extra"},
		{Name: "r", Kind: core.ParamInt, DefInt: 3, MinInt: 1, MaxInt: 4,
			Help: "scenario parameter r"},
	}
	if len(spec.Params) != len(want) {
		t.Fatalf("got %d params, want %d", len(spec.Params), len(want))
	}
	for i, w := range want {
		if spec.Params[i] != w {
			t.Errorf("param %d = %+v, want %+v", i, spec.Params[i], w)
		}
	}

	// The closed form evaluates the ASL severity expression.
	a := spec.Defaults()
	for _, procs := range []int{2, 3, 4, 8} {
		got := spec.ExpectedWait(procs, 1, a)
		exp := math.Floor(float64(procs)/2) * 0.03 * 3
		if math.Abs(got-exp) > 1e-12 {
			t.Errorf("ExpectedWait(procs=%d) = %v, want %v", procs, got, exp)
		}
	}
}

// TestScenarioImbalanceClosedForm checks the imbalance() helper against the
// distr package's ground truth, including the flat distribution (zero).
func TestScenarioImbalanceClosedForm(t *testing.T) {
	sc := parseScenario(t, testDistrScenario)
	spec := sc.Spec()
	a := spec.Defaults()
	df, dd, err := a.Distr["work"].Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 6} {
		got := spec.ExpectedWait(procs, 1, a)
		exp := 3 * distr.Imbalance(df, procs, 1.0, dd)
		if math.Abs(got-exp) > 1e-12 {
			t.Errorf("ExpectedWait(procs=%d) = %v, want %v", procs, got, exp)
		}
	}
	flat := core.NewArgs()
	flat.Int["r"] = 3
	flat.Distr["work"] = core.DistrSpec{Name: "same", Low: 0.01}
	if got := spec.ExpectedWait(4, 1, flat); got != 0 {
		t.Errorf("flat distribution: ExpectedWait = %v, want 0", got)
	}
}

// TestScenarioRunInjectsAndLocalizes executes a compiled scenario directly
// and asserts the claimed detection, magnitude, and localization.
func TestScenarioRunInjectsAndLocalizes(t *testing.T) {
	sc := parseScenario(t, testScenario)
	spec := sc.Spec()
	const procs = 4
	a := spec.Defaults()
	tr, err := mpi.Run(mpi.Options{Procs: procs}, func(c *mpi.Comm) {
		spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: omp.Options{Threads: 1}}, a)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	r := rep.Get(analyzer.PropLateSender)
	if r == nil {
		t.Fatalf("late_sender not detected\n%s", rep.Render())
	}
	exp := spec.ExpectedWait(procs, 1, a)
	if math.Abs(r.Wait-exp) > 0.01*exp+0.002 {
		t.Errorf("late_sender wait %v, closed form %v", r.Wait, exp)
	}
	if p := r.TopPath(); !strings.Contains(p, "skewed_pipeline") || !strings.Contains(p, "delayed_send") {
		t.Errorf("top path %q not under skewed_pipeline/delayed_send", p)
	}
	// The ramp shaped the message statistics: r late-sender rounds at the
	// base payload plus r ramp messages per pair, ending at 8 KiB.
	if rep.Messages.Count == 0 || rep.Messages.Bytes < 8192 {
		t.Errorf("ramp left no message volume: %+v", rep.Messages)
	}
}

// TestScenarioLocalizeClause pins the nested localize region.
func TestScenarioLocalizeClause(t *testing.T) {
	src := `
scenario located {
    param work distr = block2(0.004, 0.02);
    param r    int   = 2;
    inject skewed_barrier(work, r);
    localize "phase_core";
    severity r * imbalance(work);
}
`
	sc := parseScenario(t, src)
	if sc.Localize != "phase_core" {
		t.Fatalf("Localize = %q", sc.Localize)
	}
	tr, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
		sc.Spec().Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: omp.Options{Threads: 1}}, sc.Spec().Defaults())
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	r := rep.Get(analyzer.PropWaitAtBarrier)
	if r == nil {
		t.Fatalf("barrier wait not detected\n%s", rep.Render())
	}
	p := r.TopPath()
	for _, region := range []string{"located", "phase_core", "skewed_barrier"} {
		if !strings.Contains(p, region) {
			t.Errorf("top path %q misses region %q", p, region)
		}
	}
}

// TestScenarioCompanions: a scenario mixing primitives with different
// detections records the secondary ones as negative-axis companions.
func TestScenarioCompanions(t *testing.T) {
	src := `
scenario mixed {
    param base  float = 0.004;
    param extra float = 0.02;
    param work  distr = block2(0.004, 0.02);
    param r     int   = 2;
    inject delayed_send(base, extra, r);
    inject skewed_barrier(work, r);
    inject imbalanced_work(work, r);
    detects "late_sender";
    severity floor(ranks() / 2) * extra * r;
}
`
	sc := parseScenario(t, src)
	if sc.Detects != analyzer.PropLateSender {
		t.Fatalf("Detects = %q", sc.Detects)
	}
	want := map[string]bool{analyzer.PropWaitAtBarrier: true, analyzer.PropWaitAtNxN: true}
	if len(sc.Companions) != len(want) {
		t.Fatalf("Companions = %v", sc.Companions)
	}
	for _, c := range sc.Companions {
		if !want[c] {
			t.Errorf("unexpected companion %q", c)
		}
	}
}

// TestScenarioDetectsDefaultsToFirstPrimitive: without a detects clause the
// first wait-injecting primitive names the claim.
func TestScenarioDetectsDefaultsToFirstPrimitive(t *testing.T) {
	src := `
scenario defaulted {
    param work distr = block2(0.004, 0.02);
    param r    int   = 2;
    inject ramp_send(64, 128, r);
    inject imbalanced_work(work, r);
    severity r * imbalance(work);
}
`
	sc := parseScenario(t, src)
	if sc.Detects != analyzer.PropWaitAtNxN {
		t.Errorf("Detects = %q, want %q", sc.Detects, analyzer.PropWaitAtNxN)
	}
}

// TestRegisterSourceRoundTrip: registration makes the scenario a
// first-class registry citizen, and Unregister removes every trace.
func TestRegisterSourceRoundTrip(t *testing.T) {
	names, err := RegisterSource(testScenario)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Unregister(names...) })
	if len(names) != 1 || names[0] != "skewed_pipeline" {
		t.Fatalf("registered %v", names)
	}
	spec, ok := core.Get("skewed_pipeline")
	if !ok {
		t.Fatal("scenario not in core registry")
	}
	if spec.ASL == "" {
		t.Error("registered spec lost its ASL source")
	}
	if spec.Detects != analyzer.PropLateSender {
		t.Errorf("Detects = %q", spec.Detects)
	}
	// Duplicate registration is rejected and leaves the registry intact.
	if _, err := RegisterSource(testScenario); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, ok := core.Get("skewed_pipeline"); !ok {
		t.Error("failed duplicate registration removed the original")
	}
	Unregister(names...)
	if _, ok := core.Get("skewed_pipeline"); ok {
		t.Error("Unregister left the spec registered")
	}
	for _, s := range core.All() {
		if s == spec {
			t.Error("Unregister left the spec in the registry snapshot")
		}
	}
}

// TestRegisterSourceRollsBackOnCollision: when the second scenario of a
// source collides, the first must not stay registered.
func TestRegisterSourceRollsBackOnCollision(t *testing.T) {
	src := testScenario + `
scenario late_sender {
    param extra float = 0.02;
    param r     int   = 2;
    inject delayed_send(0.004, extra, r);
    severity floor(ranks() / 2) * extra * r;
}
`
	if _, err := RegisterSource(src); err == nil {
		t.Fatal("collision with built-in late_sender accepted")
	}
	if _, ok := core.Get("skewed_pipeline"); ok {
		core.Unregister("skewed_pipeline")
		t.Error("partial registration not rolled back")
	}
}

// TestPrimitivesTable pins the vocabulary the language reference documents.
func TestPrimitivesTable(t *testing.T) {
	prims := Primitives()
	if len(prims) != 4 {
		t.Fatalf("got %d primitives, want 4", len(prims))
	}
	byName := map[string]PrimitiveInfo{}
	for _, p := range prims {
		byName[p.Name] = p
	}
	if byName["delayed_send"].Detects != analyzer.PropLateSender {
		t.Errorf("delayed_send detects %q", byName["delayed_send"].Detects)
	}
	if byName["skewed_barrier"].Detects != analyzer.PropWaitAtBarrier {
		t.Errorf("skewed_barrier detects %q", byName["skewed_barrier"].Detects)
	}
	if byName["imbalanced_work"].Detects != analyzer.PropWaitAtNxN {
		t.Errorf("imbalanced_work detects %q", byName["imbalanced_work"].Detects)
	}
	if byName["ramp_send"].Detects != "" {
		t.Errorf("ramp_send detects %q, want none", byName["ramp_send"].Detects)
	}
}

// TestScenarioParamEnvHelpers exercises every closed-form helper through
// the severity expression.
func TestScenarioParamEnvHelpers(t *testing.T) {
	src := `
scenario helpers {
    param extra float = 0.02;
    param r     int   = 2;
    inject delayed_send(0.004, extra, r);
    severity min(max(floor(ranks()/2), 1), 64)
             * abs(0 - extra) * r
             + ceil(0.0) + sqrt(0) * threads();
}
`
	sc := parseScenario(t, src)
	got := sc.Spec().ExpectedWait(5, 2, sc.Spec().Defaults())
	want := 2 * 0.02 * 2 // floor(5/2)=2 senders, extra*r each
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedWait = %v, want %v", got, want)
	}
}

// TestParseMixedFile: properties and scenarios coexist in one catalog, and
// the property-only Parse entry point still returns the properties.
func TestParseMixedFile(t *testing.T) {
	src := testScenario + `
property dominant_late_sender {
    condition severity("late_sender") > 0.05;
    severity  severity("late_sender");
}
`
	f, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) != 1 || len(f.Props) != 1 {
		t.Fatalf("got %d scenarios, %d props", len(f.Scenarios), len(f.Props))
	}
	props, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Name != "dominant_late_sender" {
		t.Fatalf("Parse returned %v", props)
	}
	// Name collisions across the two forms are rejected.
	dup := testScenario + `
property skewed_pipeline {
    condition severity("late_sender") > 0;
}
`
	if _, err := ParseFile(dup); err == nil || !strings.Contains(err.Error(), "duplicate property") {
		t.Errorf("cross-form name collision: err = %v", err)
	}
}
