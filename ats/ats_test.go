package ats_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/ats"
	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/distr"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xctx"
)

func TestRunMPIFacade(t *testing.T) {
	tr, err := ats.RunMPI(ats.MPIOptions{Procs: 4}, func(c *mpi.Comm) {
		c.Work(0.01)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Locations) != 4 {
		t.Errorf("locations = %v", tr.Locations)
	}
	rep := ats.Analyze(tr)
	if rep.TotalTime <= 0 {
		t.Error("no total time")
	}
}

func TestRunOMPFacade(t *testing.T) {
	tr, err := ats.RunOMP(ats.OMPOptions{Threads: 3}, func(ctx *xctx.Ctx, team ats.TeamOptions) {
		core.ImbalanceAtOMPBarrier(ctx, team, mustDistr(t), mustDesc(), 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Locations) != 3 {
		t.Errorf("locations = %v", tr.Locations)
	}
}

func TestRunPropertyAllParadigms(t *testing.T) {
	for _, name := range []string{"late_sender", "imbalance_at_omp_barrier", "hybrid_barrier_after_omp_regions"} {
		tr, err := ats.RunPropertyDefaults(name, 4, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Events) == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
}

func TestRunPropertyUnknown(t *testing.T) {
	if _, err := ats.RunPropertyDefaults("nope", 2, 2); err == nil {
		t.Error("unknown property accepted")
	}
	if _, err := ats.RunProperty("nope", 2, 2, core.NewArgs()); err == nil {
		t.Error("unknown property accepted")
	}
}

func TestTimelineFacade(t *testing.T) {
	tr, err := ats.RunPropertyDefaults("late_sender", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := ats.Timeline(tr, 50)
	if !strings.Contains(out, "legend") {
		t.Errorf("timeline output missing legend:\n%s", out)
	}
}

func TestAnalyzeWithThreshold(t *testing.T) {
	tr, err := ats.RunPropertyDefaults("late_sender", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	strict := ats.AnalyzeWithThreshold(tr, 0.99)
	if strict.Top() != nil {
		t.Error("99% threshold still produced findings")
	}
	loose := ats.AnalyzeWithThreshold(tr, 0.0001)
	if loose.Top() == nil || loose.Top().Property != analyzer.PropLateSender {
		t.Error("loose threshold missed the late sender")
	}
}

// TestStreamFacadeMatchesInMemory runs the Fig 3.4 two-communicator
// program — the richest composite in the suite — through both pipelines
// and requires byte-identical profiles.
func TestStreamFacadeMatchesInMemory(t *testing.T) {
	body := func(c *mpi.Comm) {
		core.TwoCommunicators(c, core.DefaultComposite())
	}
	tr, err := ats.RunMPI(ats.MPIOptions{Procs: 8}, body)
	if err != nil {
		t.Fatal(err)
	}
	rep := ats.Analyze(tr)

	out, err := ats.RunMPIStream(ats.MPIOptions{Procs: 8}, 0, body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Events != len(tr.Events) {
		t.Fatalf("streamed %d events, materialized %d", out.Events, len(tr.Events))
	}
	if out.Ranks != 8 {
		t.Fatalf("streamed ranks = %d", out.Ranks)
	}
	want, err := profile.FromRun("fig34", tr, rep, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := profile.FromAnalysis("fig34",
		profile.TraceInfo{Ranks: out.Ranks, Threads: out.Threads, Events: out.Events},
		out.Report, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := want.Hash()
	if err != nil {
		t.Fatal(err)
	}
	gotHash, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != wantHash {
		t.Fatalf("streamed profile hash %s != in-memory %s", gotHash, wantHash)
	}
}

// TestStreamFacadeOMPAndProperty covers the OMP and property-registry
// streaming entry points.
func TestStreamFacadeOMPAndProperty(t *testing.T) {
	out, err := ats.RunOMPStream(ats.OMPOptions{Threads: 3}, 0, func(ctx *xctx.Ctx, team ats.TeamOptions) {
		core.ImbalanceAtOMPBarrier(ctx, team, mustDistr(t), mustDesc(), 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Threads != 3 || out.Events == 0 {
		t.Fatalf("OMP stream outcome: %+v", out)
	}

	spec, ok := core.Get("late_sender")
	if !ok {
		t.Fatal("late_sender not registered")
	}
	pout, err := ats.RunPropertyStream("late_sender", 4, 1, 0.0001, spec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if top := pout.Report.Top(); top == nil || top.Property != analyzer.PropLateSender {
		t.Fatalf("streamed property run missed the late sender: %+v", top)
	}
	if _, err := ats.RunPropertyStream("nope", 2, 2, 0, ats.NewArgs()); err == nil {
		t.Error("unknown property accepted")
	}
}

// TestSpoolPropertyMatchesInMemory: a property spooled to disk by
// SpoolProperty and analyzed by profile.AnalyzeSpool must produce the
// same profile hash as RunProperty + Analyze + FromRun, for an MPI
// world and for a pure-OpenMP team.
func TestSpoolPropertyMatchesInMemory(t *testing.T) {
	for _, name := range []string{"late_sender", "imbalance_at_omp_barrier"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := core.Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			const procs, threads = 4, 3
			run := profile.RunInfo{Procs: procs, Threads: threads}

			tr, err := ats.RunProperty(name, procs, threads, spec.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			want, err := profile.FromRun(name, tr, ats.Analyze(tr), run)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), name+".atsc")
			if err := ats.SpoolProperty(name, procs, threads, spec.Defaults(), path); err != nil {
				t.Fatal(err)
			}
			r, err := trace.OpenChunkFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, info, err := profile.AnalyzeSpool(r, analyzer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := profile.FromAnalysis(name, info, rep, run)
			if err != nil {
				t.Fatal(err)
			}

			wh, err := want.Hash()
			if err != nil {
				t.Fatal(err)
			}
			gh, err := got.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if gh != wh {
				t.Fatalf("spooled profile hash %s != in-memory %s", gh, wh)
			}
		})
	}
}

// TestSpoolPropertyWritesSameBytes: a run recorded with no sink and the
// same run spooled to a file and read back with trace.ReadFile serialize
// to the same bytes, for an MPI world and for a pure-OpenMP team.  Every
// traced run records through one spool path; a materialized trace is its
// in-memory spool read back.
func TestSpoolPropertyWritesSameBytes(t *testing.T) {
	for _, name := range []string{"late_sender", "imbalance_at_omp_barrier"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := core.Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			const procs, threads = 4, 3
			tr, err := ats.RunProperty(name, procs, threads, spec.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), name+".atsc")
			if err := ats.SpoolProperty(name, procs, threads, spec.Defaults(), path); err != nil {
				t.Fatal(err)
			}
			spooled, err := trace.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want, got bytes.Buffer
			if _, err := tr.Write(&want); err != nil {
				t.Fatal(err)
			}
			if _, err := spooled.Write(&got); err != nil {
				t.Fatal(err)
			}
			if len(tr.Events) == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("spooled run writes %d bytes, in-memory run %d (%d events); they differ",
					got.Len(), want.Len(), len(tr.Events))
			}
		})
	}
}

// mustDistr resolves a block2 distribution through the registry path the
// CLI drivers use.
func mustDistr(t *testing.T) distr.Func {
	t.Helper()
	ds := core.DistrSpec{Name: "block2", Low: 0.01, High: 0.05}
	df, _, err := ds.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func mustDesc() distr.Desc {
	ds := core.DistrSpec{Name: "block2", Low: 0.01, High: 0.05}
	_, dd, _ := ds.Resolve()
	return dd
}
