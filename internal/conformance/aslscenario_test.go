package conformance

// ASL-defined scenarios as first-class conformance citizens: a property
// defined purely in ASL text must flow through Generate (merged registry
// pool), Check (all three axes validated against the ASL closed form),
// Shrink (parameter halving), and DiffEngines (byte-identical traces on
// both execution engines) without any of those layers special-casing it.

import (
	"strings"
	"testing"

	"repro/internal/asl"
	"repro/internal/core"
	"repro/internal/perturb"
)

// conformanceScenario is the ASL source the oracle tests run against: a
// mixed-primitive scenario whose closed form covers only its primary
// detection (late_sender), with the barrier skew as a declared companion.
const conformanceScenario = `
scenario asl_conf_probe {
    help "late senders alongside a skewed barrier, closed under ASL";
    param base  float = 0.004 in [0.002, 0.008];
    param extra float = 0.02  in [0.01, 0.04];
    param work  distr = block2(0.004, 0.02);
    param r     int   = 2     in [1, 4];
    inject delayed_send(base, extra, r);
    inject skewed_barrier(work, r);
    inject ramp_send(128, 4096, r);
    detects "late_sender";
    severity floor(ranks() / 2) * extra * r;
}
`

// registerProbe registers the test scenario and cleans it up afterwards.
func registerProbe(t *testing.T, src string) string {
	t.Helper()
	names, err := asl.RegisterSource(src)
	if err != nil {
		t.Fatalf("RegisterSource: %v", err)
	}
	t.Cleanup(func() { asl.Unregister(names...) })
	if len(names) != 1 {
		t.Fatalf("registered %v", names)
	}
	return names[0]
}

// probeCase builds a deterministic composite case containing the scenario.
func probeCase(name string, procs int) Case {
	return Case{
		Schema: CaseSchema, Seed: 0, Procs: procs, Threads: 1, Threshold: 0.005,
		Props: []CaseProp{{
			Name:  name,
			Float: map[string]float64{"base": 0.004, "extra": 0.02},
			Int:   map[string]int{"r": 2},
			Distr: map[string]core.DistrSpec{"work": {Name: "block2", Low: 0.004, High: 0.02}},
		}},
	}
}

// TestASLScenarioCheckAllAxes: the registered scenario passes positive
// (detected, localized, closed-form magnitude), negative (the barrier skew
// is a declared companion, nothing else rises) and determinism.
func TestASLScenarioCheckAllAxes(t *testing.T) {
	name := registerProbe(t, conformanceScenario)
	for _, procs := range []int{2, 4, 5} {
		out, err := Check(probeCase(name, procs), CheckOptions{})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !out.OK() {
			t.Errorf("procs=%d: violations: %v", procs, out.Violations)
		}
	}
}

// TestASLScenarioWrongClosedFormCaught: an intentionally wrong severity
// expression (double the real wait) must be caught by the positive axis —
// the oracle validates the ASL claim, not just the injection.
func TestASLScenarioWrongClosedFormCaught(t *testing.T) {
	wrong := strings.Replace(conformanceScenario,
		"severity floor(ranks() / 2) * extra * r;",
		"severity 2 * floor(ranks() / 2) * extra * r;", 1)
	wrong = strings.Replace(wrong, "asl_conf_probe", "asl_conf_wrong", 1)
	name := registerProbe(t, wrong)
	out, err := Check(probeCase(name, 4), CheckOptions{SkipDeterminism: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("wrong ASL closed form not caught")
	}
	found := false
	for _, v := range out.Violations {
		if v.Axis == AxisPositive && v.Property == name {
			found = true
		}
	}
	if !found {
		t.Errorf("no positive-axis violation for %s: %v", name, out.Violations)
	}
}

// TestASLScenarioCompanionRequired: without the companion allowance the
// barrier skew of the secondary primitive trips the negative axis — i.e.
// the Spec.Companions channel is load-bearing, not decorative.
func TestASLScenarioCompanionRequired(t *testing.T) {
	solo := `
scenario asl_conf_solo {
    param work  distr = block2(0.004, 0.02);
    param extra float = 0.02;
    param r     int   = 2;
    inject delayed_send(0.004, extra, r);
    inject skewed_barrier(work, r);
    detects "late_sender";
    severity floor(ranks() / 2) * extra * r;
}
`
	name := registerProbe(t, solo)
	spec, _ := core.Get(name)
	if len(spec.Companions) != 1 || spec.Companions[0] != "wait_at_mpi_barrier" {
		t.Fatalf("Companions = %v", spec.Companions)
	}
	// Strip the companions and verify the negative axis fires; restore.
	saved := spec.Companions
	spec.Companions = nil
	defer func() { spec.Companions = saved }()
	cs := Case{
		Schema: CaseSchema, Procs: 4, Threads: 1, Threshold: 0.005,
		Props: []CaseProp{{
			Name:  name,
			Float: map[string]float64{"extra": 0.02},
			Int:   map[string]int{"r": 2},
			Distr: map[string]core.DistrSpec{"work": {Name: "block2", Low: 0.004, High: 0.02}},
		}},
	}
	out, err := Check(cs, CheckOptions{SkipDeterminism: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, v := range out.Violations {
		if v.Axis == AxisNegative && v.Property == "wait_at_mpi_barrier" {
			fired = true
		}
	}
	if !fired {
		t.Errorf("negative axis silent without companions: %v", out.Violations)
	}
}

// TestASLScenarioEngineDiff: byte-identical ATS1 traces and profile hashes
// across the event-driven and goroutine engines, unperturbed and under a
// perturbation profile.
func TestASLScenarioEngineDiff(t *testing.T) {
	name := registerProbe(t, conformanceScenario)
	cs := probeCase(name, 4)
	out, err := DiffEngines(cs, perturb.Profile{})
	if err != nil {
		t.Fatalf("unperturbed: %v", err)
	}
	if !out.BytesCompared || out.TraceBytes == 0 {
		t.Errorf("unperturbed outcome %+v", out)
	}
	if _, err := DiffEngines(cs, perturb.Level(7, 2)); err != nil {
		t.Fatalf("perturbed: %v", err)
	}
}

// TestASLScenarioGenerateDrawsFromMergedRegistry: once registered, the
// scenario joins the default pool and seeds exist that draw it with
// in-range parameters.
func TestASLScenarioGenerateDrawsFromMergedRegistry(t *testing.T) {
	name := registerProbe(t, conformanceScenario)
	pool := DefaultPool()
	found := false
	for _, p := range pool {
		if p == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s missing from DefaultPool %v", name, pool)
	}
	// Force-draw the scenario and validate the generated arguments.
	cs := Generate(3, Config{Pool: []string{name}, MinProps: 1, MaxProps: 1})
	if len(cs.Props) != 1 || cs.Props[0].Name != name {
		t.Fatalf("generated %v", cs)
	}
	if err := cs.Validate(); err != nil {
		t.Fatalf("generated case invalid: %v", err)
	}
	cp := cs.Props[0]
	if cp.Float["extra"] < 0.01 || cp.Float["extra"] > 0.04 {
		t.Errorf("extra %v outside declared in-range [0.01, 0.04]", cp.Float["extra"])
	}
	if cp.Int["r"] < 1 || cp.Int["r"] > 4 {
		t.Errorf("r %v outside declared in-range [1, 4]", cp.Int["r"])
	}
	out, err := Check(cs, CheckOptions{SkipDeterminism: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Errorf("generated scenario case fails oracle: %v", out.Violations)
	}
}

// TestASLScenarioShrink: a failing case containing the scenario shrinks by
// halving its ASL-declared parameters, same as any built-in.
func TestASLScenarioShrink(t *testing.T) {
	name := registerProbe(t, conformanceScenario)
	cs := probeCase(name, 4)
	cs.Props[0].Float["extra"] = 0.04
	cs.Props[0].Int["r"] = 4
	// A dropped detection makes the case fail its positive axis, giving
	// the shrinker something real to minimize.
	opt := CheckOptions{SkipDeterminism: true, DropProperty: "late_sender"}
	min := Shrink(cs, opt)
	if len(min.Props) != 1 || min.Props[0].Name != name {
		t.Fatalf("shrunk to %v", min)
	}
	if got := min.Props[0].Int["r"]; got != 1 {
		t.Errorf("r not halved to 1: %d", got)
	}
	if got := min.Props[0].Float["extra"]; got >= 0.04 {
		t.Errorf("extra not shrunk: %v", got)
	}
	if !stillFailing(min, opt.withDefaults()) {
		t.Error("shrunk case no longer fails")
	}
}

// TestASLRegistrationDuringBuiltinCheck: registering and unregistering an
// ASL scenario while the oracle checks a built-in case shares no
// unsynchronized state with the check.  Under -race it fails when a
// property's detection target lives anywhere the registration writes
// outside the core registry's lock.
func TestASLRegistrationDuringBuiltinCheck(t *testing.T) {
	src := strings.Replace(conformanceScenario, "asl_conf_probe", "asl_conf_race", 1)
	cs := Generate(1, Config{}) // drawn before the scenario can join the pool
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			names, err := asl.RegisterSource(src)
			if err != nil {
				t.Errorf("RegisterSource: %v", err)
				return
			}
			asl.Unregister(names...)
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 8; i++ {
		out, err := Check(cs, CheckOptions{SkipDeterminism: true})
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK() {
			t.Fatalf("%v: violations: %v", cs, out.Violations)
		}
	}
}
