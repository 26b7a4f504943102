package core_test

import (
	"math"
	"testing"

	"repro/ats"
	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/distr"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/trace"
	"repro/internal/xctx"
)

const (
	testProcs   = 8
	testThreads = 4
)

// TestPositiveCorrectnessAllProperties is the suite's central promise: for
// every registered property function, a single-property test program must
// lead a correct analysis tool to report exactly that property as its
// dominant finding, with the configured severity.
func TestPositiveCorrectnessAllProperties(t *testing.T) {
	for _, spec := range core.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want := spec.Detects
			if want == "" {
				t.Fatalf("no expected detection registered for %q", spec.Name)
			}
			tr, err := ats.RunPropertyDefaults(spec.Name, testProcs, testThreads)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			rep := ats.Analyze(tr)

			if want == analyzer.PropMPITimeFraction {
				// Cost metric, not a wait state: MPI must dominate.
				r := rep.Get(analyzer.PropMPITimeFraction)
				if r == nil || r.Severity < 0.5 {
					t.Fatalf("MPI time fraction not dominant: %+v", r)
				}
				return
			}

			top := rep.Top()
			if top == nil {
				t.Fatalf("no significant finding; report:\n%s", rep.Render())
			}
			// Properties whose physics necessarily produce an equally or
			// more severe companion finding: hybrid cause-and-effect
			// properties, and critical-section serialization (whose
			// staggered exits always create a matching barrier wait).
			nonDominant := spec.Paradigm == core.ParadigmHybrid ||
				spec.Name == "serialization_at_omp_critical"
			if nonDominant {
				// Hybrid properties seed a root cause in one paradigm
				// that manifests in the other; the root cause may
				// legitimately dominate.  The characteristic effect must
				// still be among the significant findings.
				found := false
				for _, r := range rep.Significant() {
					if r.Property == want {
						found = true
					}
				}
				if !found {
					t.Fatalf("expected %s among significant findings; report:\n%s",
						want, rep.Render())
				}
			} else if top.Property != want {
				t.Fatalf("top finding = %s, want %s; report:\n%s",
					top.Property, want, rep.Render())
			}

			// Quantitative check where a closed form exists: the measured
			// waiting time must match the configured severity.  Virtual
			// time makes this nearly exact; the tolerance absorbs the
			// small network-model terms.
			expWait := spec.ExpectedWait(testProcs, testThreads, spec.Defaults())
			if expWait > 0 {
				got := rep.Wait(want)
				if math.Abs(got-expWait) > 0.10*expWait+0.002 {
					t.Errorf("measured wait %.6fs, expected %.6fs (±10%%)", got, expWait)
				}
			}
		})
	}
}

// TestPositiveCorrectnessLocalization checks the call-path dimension: the
// dominant finding must be attributed to a call path inside the property
// function's own region.
func TestPositiveCorrectnessLocalization(t *testing.T) {
	cases := map[string]string{ // property -> region that must appear in top path
		"late_sender":              "late_sender",
		"late_broadcast":           "late_broadcast",
		"imbalance_at_mpi_barrier": "imbalance_at_mpi_barrier",
		"early_reduce":             "early_reduce",
		"imbalance_at_omp_barrier": "imbalance_at_omp_barrier",
	}
	for name, region := range cases {
		tr, err := ats.RunPropertyDefaults(name, testProcs, testThreads)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := ats.Analyze(tr)
		top := rep.Top()
		if top == nil {
			t.Fatalf("%s: no finding", name)
		}
		path := top.TopPath()
		if !containsRegion(path, region) {
			t.Errorf("%s: top path %q does not contain region %q", name, path, region)
		}
	}
}

func containsRegion(path, region string) bool {
	for len(path) > 0 {
		i := 0
		for i < len(path) && path[i] != '/' {
			i++
		}
		if path[:i] == region {
			return true
		}
		if i == len(path) {
			break
		}
		path = path[i+1:]
	}
	return false
}

// TestNegativeCorrectness: well-tuned programs must produce no significant
// findings (paper §1, negative correctness).
func TestNegativeCorrectness(t *testing.T) {
	t.Run("mpi", func(t *testing.T) {
		tr, err := ats.RunMPI(ats.MPIOptions{Procs: testProcs}, func(c *mpi.Comm) {
			core.NegativeBalancedMPI(c, 0.02, 10)
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := ats.Analyze(tr)
		if top := rep.Top(); top != nil {
			t.Errorf("spurious finding %s (%.2f%%):\n%s",
				top.Property, top.Severity*100, rep.Render())
		}
	})
	t.Run("omp", func(t *testing.T) {
		tr, err := ats.RunOMP(ats.OMPOptions{Threads: testThreads},
			func(ctx *xctx.Ctx, team ats.TeamOptions) {
				core.NegativeBalancedOMP(ctx, team, 0.02, 10)
			})
		if err != nil {
			t.Fatal(err)
		}
		rep := ats.Analyze(tr)
		if top := rep.Top(); top != nil {
			t.Errorf("spurious finding %s (%.2f%%)", top.Property, top.Severity*100)
		}
	})
	t.Run("hybrid", func(t *testing.T) {
		tr, err := ats.RunMPI(ats.MPIOptions{Procs: 4}, func(c *mpi.Comm) {
			core.NegativeBalancedHybrid(c, omp.Options{Threads: testThreads}, 0.02, 5)
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := ats.Analyze(tr)
		if top := rep.Top(); top != nil {
			t.Errorf("spurious finding %s (%.2f%%)", top.Property, top.Severity*100)
		}
	})
}

// TestSeverityScalesWithParameters: doubling the pathological extra work
// must double the measured waiting time (the suite is parameterized so
// tool thresholds can be probed, §3.1).
func TestSeverityScalesWithParameters(t *testing.T) {
	measure := func(extra float64) float64 {
		a := core.NewArgs()
		a.Float["basework"] = 0.01
		a.Float["extrawork"] = extra
		a.Int["r"] = 5
		tr, err := ats.RunProperty("late_sender", testProcs, 1, a)
		if err != nil {
			t.Fatal(err)
		}
		return ats.Analyze(tr).Wait(analyzer.PropLateSender)
	}
	w1, w2 := measure(0.02), measure(0.04)
	if w1 <= 0 {
		t.Fatal("no late-sender wait measured")
	}
	ratio := w2 / w1
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("wait ratio = %.3f, want ≈ 2 (w1=%v w2=%v)", ratio, w1, w2)
	}
}

// TestCompositeAllMPIDetectsEverything reproduces Fig 3.3: one program
// calling all MPI property functions; the analyzer must find every
// property class, each localized in its own property region.
func TestCompositeAllMPIDetectsEverything(t *testing.T) {
	tr, err := ats.RunMPI(ats.MPIOptions{Procs: testProcs}, func(c *mpi.Comm) {
		core.CompositeAllMPI(c, core.DefaultComposite())
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := ats.AnalyzeWithThreshold(tr, 0.001)
	wantProps := map[string]bool{
		analyzer.PropLateSender:    false,
		analyzer.PropLateReceiver:  false,
		analyzer.PropWaitAtBarrier: false,
		analyzer.PropLateBroadcast: false,
		analyzer.PropEarlyReduce:   false,
		analyzer.PropWaitAtNxN:     false,
	}
	for _, r := range rep.Significant() {
		if _, ok := wantProps[r.Property]; ok {
			wantProps[r.Property] = true
		}
	}
	for p, found := range wantProps {
		if !found {
			t.Errorf("composite program: property %s not detected\n%s", p, rep.Render())
		}
	}
	// Each source property function must appear as a distinct call path
	// of its detected property.
	ls := rep.Get(analyzer.PropLateSender)
	foundPlain, foundNB := false, false
	for p := range ls.ByPath {
		if containsRegion(p, "late_sender") {
			foundPlain = true
		}
		if containsRegion(p, "late_sender_nonblocking") {
			foundNB = true
		}
	}
	if !foundPlain || !foundNB {
		t.Errorf("late_sender call paths incomplete: plain=%v nonblocking=%v", foundPlain, foundNB)
	}
}

// TestTwoCommunicatorsLocalization reproduces Fig 3.4/3.5: the world is
// split in half, each half runs its own property set concurrently, and
// the analyzer must attribute each property to the correct ranks.  In
// particular late_broadcast runs on the upper half with communicator-local
// root 1 — world rank size/2+1 — and the waiting must appear on the upper
// half excluding that root, exactly the localization EXPERT shows in the
// paper's screenshot.
func TestTwoCommunicatorsLocalization(t *testing.T) {
	const P = 16
	tr, err := ats.RunMPI(ats.MPIOptions{Procs: P}, func(c *mpi.Comm) {
		core.TwoCommunicators(c, core.DefaultComposite())
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := ats.AnalyzeWithThreshold(tr, 0.001)
	half := P / 2

	lb := rep.Get(analyzer.PropLateBroadcast)
	if lb == nil {
		t.Fatalf("late_broadcast not detected\n%s", rep.Render())
	}
	rootWorld := int32(half + core.UpperHalfBcastRoot)
	for loc, w := range lb.ByLocation {
		if w <= 0 {
			continue
		}
		if loc.Rank < int32(half) {
			t.Errorf("late_broadcast wait on lower-half rank %d", loc.Rank)
		}
		if loc.Rank == rootWorld {
			t.Errorf("late_broadcast wait attributed to the root rank %d", loc.Rank)
		}
	}
	// Every non-root upper-half rank must have waited.
	for r := int32(half); r < P; r++ {
		if r == rootWorld {
			continue
		}
		if lb.ByLocation[trace.Location{Rank: r}] <= 0 {
			t.Errorf("upper-half rank %d shows no late_broadcast wait", r)
		}
	}
	// The call-graph pane must point at MPI_Bcast inside late_broadcast.
	if p := lb.TopPath(); !containsRegion(p, "late_broadcast") || !containsRegion(p, "MPI_Bcast") {
		t.Errorf("late_broadcast top path %q lacks late_broadcast/MPI_Bcast", p)
	}

	// Late sender belongs to the lower half only.
	ls := rep.Get(analyzer.PropLateSender)
	if ls == nil {
		t.Fatalf("late_sender not detected")
	}
	for loc, w := range ls.ByLocation {
		if w > 0 && loc.Rank >= int32(half) {
			t.Errorf("late_sender wait on upper-half rank %d", loc.Rank)
		}
	}
	// Late receiver belongs to the upper half only.
	lr := rep.Get(analyzer.PropLateReceiver)
	if lr == nil {
		t.Fatalf("late_receiver not detected")
	}
	for loc, w := range lr.ByLocation {
		if w > 0 && loc.Rank < int32(half) {
			t.Errorf("late_receiver wait on lower-half rank %d", loc.Rank)
		}
	}
}

// TestCompositeHybrid: MPI-level and OpenMP-level properties coexist in
// one program and are both reported (§3.3 closing scenario).
func TestCompositeHybrid(t *testing.T) {
	tr, err := ats.RunMPI(ats.MPIOptions{Procs: 4}, func(c *mpi.Comm) {
		core.CompositeHybrid(c, omp.Options{Threads: testThreads}, core.DefaultComposite())
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := ats.AnalyzeWithThreshold(tr, 0.001)
	if rep.Wait(analyzer.PropLateSender) <= 0 {
		t.Error("hybrid composite: no late_sender detected")
	}
	if rep.Wait(analyzer.PropOMPBarrier) <= 0 {
		t.Error("hybrid composite: no OpenMP barrier imbalance detected")
	}
}

// TestDetectsTargetsExist: every registered detection target and
// companion is a leaf of the analyzer's property hierarchy, or an info
// metric, so the oracle never waits for a finding the analyzer cannot
// report.
func TestDetectsTargetsExist(t *testing.T) {
	inner := map[string]bool{}
	for _, parent := range analyzer.Hierarchy {
		inner[parent] = true
	}
	reportable := func(prop string) bool {
		_, inTree := analyzer.Hierarchy[prop]
		return inTree && !inner[prop] || analyzer.IsInfo(prop)
	}
	for _, spec := range core.All() {
		if spec.Detects != "" && !reportable(spec.Detects) {
			t.Errorf("%s detects unknown property %s", spec.Name, spec.Detects)
		}
		for _, c := range spec.Companions {
			if !reportable(c) {
				t.Errorf("%s has unknown companion %s", spec.Name, c)
			}
		}
	}
}

// TestRegistryConsistency checks the registry invariants the generator
// relies on.
func TestRegistryConsistency(t *testing.T) {
	names := core.Names()
	if len(names) < 20 {
		t.Fatalf("only %d properties registered", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate property %q", n)
		}
		seen[n] = true
		spec, ok := core.Get(n)
		if !ok {
			t.Fatalf("Get(%q) failed", n)
		}
		if spec.Help == "" {
			t.Errorf("%s: missing help text", n)
		}
		// The paradigms partition the registry.
		switch spec.Paradigm {
		case core.ParadigmMPI, core.ParadigmOMP, core.ParadigmHybrid:
		default:
			t.Errorf("%s: paradigm %v outside the partition", n, spec.Paradigm)
		}
		if spec.Detects == "" {
			t.Errorf("%s: no Detects", n)
		}
		a := spec.Defaults()
		for _, p := range spec.Params {
			if p.Kind == core.ParamDistr {
				if _, _, err := a.Distr[p.Name].Resolve(); err != nil {
					t.Errorf("%s: default distribution invalid: %v", n, err)
				}
			}
		}
		if spec.ExpectedWait == nil {
			t.Errorf("%s: missing ExpectedWait", n)
		}
	}
}

// TestExpectedWaitFormulas cross-checks the closed forms against the
// distribution-level Imbalance helper.
func TestExpectedWaitFormulas(t *testing.T) {
	spec, _ := core.Get("imbalance_at_mpi_barrier")
	a := spec.Defaults()
	got := spec.ExpectedWait(8, 1, a)
	df, dd, err := a.Distr["distr"].Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(a.Int["r"]) * distr.Imbalance(df, 8, 1.0, dd)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedWait = %v, want %v", got, want)
	}
}
