package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/vtime"
)

func TestFig32(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig32(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) != 4 {
		t.Fatalf("sweep rows = %d", len(res.Sweep))
	}
	// Every parameter set must be detected as wait_at_mpi_barrier.
	for _, r := range res.Sweep {
		if r.TopProperty != analyzer.PropWaitAtBarrier {
			t.Errorf("%s: top = %s", r.Point.Label, r.TopProperty)
		}
		if r.Expected > 0 {
			rel := math.Abs(r.Wait-r.Expected) / r.Expected
			if rel > 0.1 {
				t.Errorf("%s: wait %v vs expected %v", r.Point.Label, r.Wait, r.Expected)
			}
		}
	}
	// Severity-scaled rows must bracket the base row.
	if !(res.Sweep[2].Wait < res.Sweep[0].Wait && res.Sweep[0].Wait < res.Sweep[3].Wait) {
		t.Errorf("severity scaling broken: %v / %v / %v",
			res.Sweep[2].Wait, res.Sweep[0].Wait, res.Sweep[3].Wait)
	}
	// The paper's remark: init overhead dominates tiny programs.
	if res.InitOverheadSmall <= res.InitOverheadLarge {
		t.Errorf("init overhead: small %v <= large %v",
			res.InitOverheadSmall, res.InitOverheadLarge)
	}
	out := buf.String()
	for _, want := range []string{"timeline", "init/finalize", "block2"} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact missing %q", want)
		}
	}
}

func TestFig33(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig33(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	for prop, found := range res.Detected {
		if !found {
			t.Errorf("property class %s not detected", prop)
		}
	}
	if res.Events == 0 || res.Findings == 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestFig34And35(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig34And35(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LateBcastOnUpperHalfOnly {
		t.Error("late broadcast not localized to the upper half")
	}
	if !res.TopPathHasBcast {
		t.Error("call path does not point at late_broadcast/MPI_Bcast")
	}
	if res.RootWorldRank != 9 {
		t.Errorf("root world rank = %d, want 9 (paper setup)", res.RootWorldRank)
	}
}

func TestPositiveCorrectnessTable(t *testing.T) {
	rows, err := PositiveCorrectness(io.Discard, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(core.All()) {
		t.Fatalf("rows = %d, registry = %d", len(rows), len(core.All()))
	}
	for _, r := range rows {
		if !r.Correct {
			t.Errorf("%s: misdetected (top %s, want %s)", r.Property, r.Top, r.Expected)
		}
	}
}

func TestNegativeCorrectnessTable(t *testing.T) {
	rs, err := NegativeCorrectness(io.Discard, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !r.AnalyzedOK {
			t.Errorf("%s: spurious %s (%.2f%%)", r.Program, r.TopProperty, r.TopSeverity*100)
		}
	}
}

func TestCh2(t *testing.T) {
	res, err := Ch2(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SemanticsPreserved {
		t.Error("semantics not preserved")
	}
	if res.Intrusiveness.Events == 0 {
		t.Error("no events measured")
	}
}

func TestCh4(t *testing.T) {
	rows, err := Ch4Applications(io.Discard, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.AsDesired {
			t.Errorf("%s/%v: top=%s sev=%.2f%%", r.App, r.Inject, r.Top, r.Severity*100)
		}
	}
}

func TestWorkAccuracyVirtual(t *testing.T) {
	res, err := WorkAccuracy(io.Discard, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.VirtualExact {
		t.Error("virtual work not exact")
	}
}

func TestAblationsVirtual(t *testing.T) {
	res, err := Ablations(io.Discard, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualRelErr > 0.01 {
		t.Errorf("virtual late-sender error %v", res.VirtualRelErr)
	}
	if res.EagerLateReceiverWait != 0 {
		t.Errorf("eager protocol produced late-receiver wait %v", res.EagerLateReceiverWait)
	}
	if math.Abs(res.RendezvousLateReceiverWait-0.1) > 0.01 {
		t.Errorf("rendezvous late-receiver wait %v, want ≈ 0.1", res.RendezvousLateReceiverWait)
	}
}

// --- real-clock integration tests (skipped with -short) -----------------

// needCPUs skips real-clock tests that require genuinely parallel
// execution: on fewer cores the ranks timeshare one CPU and the wall-clock
// wait states are scheduling artifacts — the very distortion the paper
// warns about for loaded machines.
func needCPUs(t *testing.T, n int) {
	t.Helper()
	if testing.Short() {
		t.Skip("real-clock test")
	}
	if runtime.NumCPU() < n {
		t.Skipf("needs %d CPUs for parallel real-clock execution, have %d", n, runtime.NumCPU())
	}
}

// realAttempts is how often a real-clock test may re-measure: contention
// on a loaded host distorts single runs, so one clean run of several is
// the evidence.
const realAttempts = 3

func TestRealModeLateSenderDetected(t *testing.T) {
	needCPUs(t, 2)
	var last string
	for attempt := 0; attempt < realAttempts; attempt++ {
		tr, err := mpi.Run(mpi.Options{Procs: 2, Mode: vtime.Real}, func(c *mpi.Comm) {
			core.LateSender(c, 0.002, 0.02, 5)
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := analyzer.Analyze(tr, analyzer.Options{})
		// One pair × 20ms × 5 reps = 100ms ± scheduling noise.
		got := rep.Wait(analyzer.PropLateSender)
		if raceEnabled {
			// The run above is what the race detector checks.  Its
			// wait is not: sync.Pool drops pooled work arrays at
			// random under -race, so a rank's do_work may first-touch
			// a fresh 16 MiB pair plus its shadow memory and stall for
			// tens of milliseconds, and the late sender's wait shrinks
			// or vanishes.
			t.Logf("under -race the wait (%v) is not checked", got)
			return
		}
		if top := rep.Top(); top != nil && top.Property == analyzer.PropLateSender && got >= 0.05 && got <= 0.3 {
			return
		}
		last = fmt.Sprintf("wait %v, want ≈ 0.1 with late sender dominant:\n%s", got, rep.Render())
	}
	t.Errorf("real mode: no attempt of %d in bounds; last: %s", realAttempts, last)
}

func TestRealModeBarrierImbalance(t *testing.T) {
	needCPUs(t, 4)
	tr, err := mpi.Run(mpi.Options{Procs: 4, Mode: vtime.Real}, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Work(0.03)
		} else {
			c.Work(0.005)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	got := rep.Wait(analyzer.PropWaitAtBarrier)
	// 3 ranks × ~25ms.
	if got < 0.04 || got > 0.25 {
		t.Errorf("real-mode barrier wait %v, want ≈ 0.075", got)
	}
}

func TestRealModeNegativeStaysQuiet(t *testing.T) {
	needCPUs(t, 2)
	tr, err := mpi.Run(mpi.Options{Procs: 2, Mode: vtime.Real}, func(c *mpi.Comm) {
		core.NegativeBalancedMPI(c, 0.01, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Real mode is noisy: allow a generous threshold, but nothing should
	// be grossly wrong with a balanced program.
	rep := analyzer.Analyze(tr, analyzer.Options{Threshold: 0.15})
	if top := rep.Top(); top != nil {
		t.Errorf("balanced real-mode program flagged: %s (%.2f%%)",
			top.Property, top.Severity*100)
	}
}

func TestRealModeWorkAccuracy(t *testing.T) {
	// Needs a CPU to itself: when the whole test suite contends for the
	// core, the calibrated spin loop overshoots — exactly the "not
	// guaranteed to be stable especially under heavy work load"
	// limitation the paper states for the original do_work.
	// Under -race the work loop's chunks stall on fresh arrays (see
	// TestRealModeLateSenderDetected) and overshoot past any bound.
	needCPUs(t, 2)
	if raceEnabled {
		t.Skip("real-clock work accuracy is meaningless under -race")
	}
	best := math.Inf(1)
	for attempt := 0; attempt < realAttempts; attempt++ {
		res, err := WorkAccuracy(io.Discard, true)
		if err != nil {
			t.Fatal(err)
		}
		best = math.Min(best, res.RealMeanErr)
	}
	// The paper promises millisecond-level accuracy; allow 30% relative
	// error on loaded CI machines.
	if best > 0.3 {
		t.Errorf("real-mode work error %.1f%% (best of %d)", best*100, realAttempts)
	}
}
