package conformance

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/perturb"
)

// TestDiffEnginesCorpus byte-compares both engines over every committed
// corpus case — the engine differential on the curated regression surface.
func TestDiffEnginesCorpus(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("..", "..", "testdata", "conformance-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out, err := DiffEngines(e.Case, perturb.Profile{})
		if err != nil {
			t.Errorf("%s (%s): %v", e.Name, e.Case, err)
			continue
		}
		if out.BytesCompared && out.TraceBytes == 0 {
			t.Errorf("%s: compared an empty trace", e.Name)
		}
	}
}

// TestDiffEnginesGenerated sweeps generated seeds through the oracle, each
// unperturbed and at one perturbation level cycling 1..MaxLevel by seed.
// The default count keeps `go test` fast; CI's scale-smoke job raises it
// with ATS_DIFF_SEEDS.
func TestDiffEnginesGenerated(t *testing.T) {
	n := 12
	if s := os.Getenv("ATS_DIFF_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("ATS_DIFF_SEEDS=%q: %v", s, err)
		}
		n = v
	} else if testing.Short() {
		n = 4
	}
	compared := 0
	for seed := uint64(1); seed <= uint64(n); seed++ {
		cs := Generate(seed, Config{})
		out, err := DiffEngines(cs, perturb.Profile{})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, cs, err)
		}
		if out.BytesCompared {
			compared++
		}
		level := 1 + int((seed-1)%uint64(perturb.MaxLevel))
		if _, err := DiffEngines(cs, perturb.Level(seed, level)); err != nil {
			t.Fatalf("seed %d (%s) perturb level %d: %v", seed, cs, level, err)
		}
	}
	if compared == 0 {
		t.Fatalf("no generated case was byte-compared (all nondeterministic?)")
	}
}

// TestDiffEnginesPerturbed runs the oracle under every perturbation level:
// the perturbation model keys jitter off structural coordinates (rank,
// sequence numbers), not execution order, so engine equivalence must
// survive it at every level 0–3.
func TestDiffEnginesPerturbed(t *testing.T) {
	cs := Generate(7, Config{})
	for level := 0; level <= perturb.MaxLevel; level++ {
		prof := perturb.Level(cs.Seed, level)
		if _, err := DiffEngines(cs, prof); err != nil {
			t.Errorf("level %d (%s): %v", level, prof, err)
		}
	}
}

// TestDiffEnginesErrorSurface pins the harness's own failure reporting:
// an invalid case must fail validation, not reach either engine.
func TestDiffEnginesErrorSurface(t *testing.T) {
	cs := Generate(3, Config{})
	cs.Procs = 0
	if _, err := DiffEngines(cs, perturb.Profile{}); err == nil {
		t.Fatal("DiffEngines accepted an invalid case")
	}
}

// TestDiffEngineApps byte-compares the engines over the Ch.4 application
// kernels — the closest things the suite has to real programs, covering
// master/worker wildcard scheduling, halo exchanges, pipelines, and the
// hybrid MPI+OpenMP solver.
func TestDiffEngineApps(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		body  func(c *mpi.Comm)
	}{
		{"jacobi", 4, func(c *mpi.Comm) {
			apps.Jacobi(c, apps.JacobiConfig{Rows: 16, Cols: 8, Iters: 3})
		}},
		{"jacobi-imbalance", 4, func(c *mpi.Comm) {
			apps.Jacobi(c, apps.JacobiConfig{Rows: 16, Cols: 8, Iters: 3, Inject: apps.InjectImbalance})
		}},
		{"jacobi2d", 4, func(c *mpi.Comm) {
			apps.Jacobi2D(c, apps.Jacobi2DConfig{Rows: 8, Cols: 8, Iters: 2})
		}},
		{"masterworker", 5, func(c *mpi.Comm) {
			apps.MasterWorker(c, apps.MasterWorkerConfig{Tasks: 17, TaskCost: 1e-4})
		}},
		{"masterworker-imbalance", 4, func(c *mpi.Comm) {
			apps.MasterWorker(c, apps.MasterWorkerConfig{Tasks: 9, TaskCost: 1e-4, Inject: apps.InjectImbalance})
		}},
		{"pipeline", 4, func(c *mpi.Comm) {
			apps.Pipeline(c, apps.PipelineConfig{Blocks: 6, StageCost: 1e-4})
		}},
		{"hybridheat", 3, func(c *mpi.Comm) {
			apps.HybridHeat(c, apps.HybridHeatConfig{Rows: 8, Cols: 4, Iters: 2, Threads: 3})
		}},
		{"composite-all-mpi", 4, func(c *mpi.Comm) {
			core.CompositeAllMPI(c, core.DefaultComposite())
		}},
		{"two-communicators", 6, func(c *mpi.Comm) {
			core.TwoCommunicators(c, core.DefaultComposite())
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DiffEngineBodies(tc.procs, tc.body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzDiffEngines is the native-fuzzing entry point for the engine
// differential: any generatable seed must produce byte-identical traces
// on both engines (or be a documented nondeterministic case).
func FuzzDiffEngines(f *testing.F) {
	for _, seed := range []uint64{1, 42, 1 << 32} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cs := Generate(seed, Config{})
		if _, err := DiffEngines(cs, perturb.Profile{}); err != nil {
			min := Shrink(cs, CheckOptions{SkipDeterminism: true})
			blob, _ := MarshalCase(min)
			t.Fatalf("seed %d (%s): %v\nshrunken case:\n%s", seed, cs, err, blob)
		}
	})
}
