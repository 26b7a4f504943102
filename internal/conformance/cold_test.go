package conformance

import (
	"maps"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/perturb"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestPropertiesDoNotMutateArgs guards caseBody's sharing of one
// core.Args per property across every rank of every run: each registered
// spec (and an ASL-compiled scenario) runs with its default arguments on
// a 4-rank world whose ranks share one Args, as in a composite case, and
// the argument maps must be unchanged afterwards.  Under -race a
// property writing its arguments also shows as a race between ranks.
func TestPropertiesDoNotMutateArgs(t *testing.T) {
	registerProbe(t, conformanceScenario)
	team := omp.Options{Threads: 2}
	specs := core.All()
	if len(specs) < 20 {
		t.Fatalf("%d registered specs", len(specs))
	}
	for _, spec := range specs {
		a := spec.Defaults()
		want := core.Args{Float: maps.Clone(a.Float), Int: maps.Clone(a.Int), Distr: maps.Clone(a.Distr)}
		_, err := mpi.Run(mpi.Options{Procs: 4, Untraced: true}, func(c *mpi.Comm) {
			spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: team}, a)
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !maps.Equal(a.Float, want.Float) || !maps.Equal(a.Int, want.Int) || !maps.Equal(a.Distr, want.Distr) {
			t.Errorf("%s changed its arguments: %+v, want %+v", spec.Name, a, want)
		}
	}
}

// coldSeeds are the default cases BenchmarkCheckCold and
// TestCheckColdAllocs check.
const coldSeeds = 32

// BenchmarkCheckCold splits one uncached Check into its layers over
// coldSeeds default cases: the run into an in-memory spool, AnalyzeSpool
// of that spool, the profile hash (FromAnalysis + Hash), the determinism
// rerun compared byte for byte against the held spool, and the whole
// Check.  The layers add up to Check, up to the positive and negative
// axes and the call overhead between them.
func BenchmarkCheckCold(b *testing.B) {
	cases := make([]Case, coldSeeds)
	bodies := make([]func(*mpi.Comm), coldSeeds)
	spools := make([]*trace.MemSpool, coldSeeds)
	reps := make([]*analyzer.Report, coldSeeds)
	infos := make([]profile.TraceInfo, coldSeeds)
	for i := range cases {
		cases[i] = Generate(uint64(i+1), Config{})
		bodies[i] = caseBody(cases[i])
		spool, err := trace.SpoolInMemory(caseRun(cases[i], perturb.Profile{}, bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		defer spool.Release()
		spools[i] = spool
		if reps[i], infos[i], err = analyzeSpool(cases[i], spool); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % coldSeeds
			spool, err := trace.SpoolInMemory(caseRun(cases[k], perturb.Profile{}, bodies[k]))
			if err != nil {
				b.Fatal(err)
			}
			spool.Release()
		}
	})
	b.Run("AnalyzeSpool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % coldSeeds
			if _, _, err := analyzeSpool(cases[k], spools[k]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % coldSeeds
			p, err := profile.FromAnalysis(DefaultExperiment, infos[k], reps[k], caseRunInfo(cases[k]))
			if err == nil {
				_, err = p.Hash()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Rerun", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % coldSeeds
			diff, err := spools[k].Compare(caseRun(cases[k], perturb.Profile{}, bodies[k]))
			if err != nil {
				b.Fatal(err)
			}
			if diff != nil {
				diff.Release()
			}
		}
	})
	b.Run("Check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Check(cases[i%coldSeeds], CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// analyzeSpool is the AnalyzeSpool layer of analyzeCase.
func analyzeSpool(cs Case, spool *trace.MemSpool) (*analyzer.Report, profile.TraceInfo, error) {
	cr, err := spool.Reader()
	if err != nil {
		return nil, profile.TraceInfo{}, err
	}
	return profile.AnalyzeSpool(cr, analyzer.Options{Threshold: cs.Threshold})
}

// TestCheckColdAllocs holds one uncached Check to an allocation budget,
// averaged over BenchmarkCheckCold's cases.  The budget sits a few
// percent above the measured mean (pool hits vary with GC timing); lower
// it when a change cuts allocations, never raise it.
func TestCheckColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 1030
	cases := make([]Case, coldSeeds)
	for i := range cases {
		cases[i] = Generate(uint64(i+1), Config{})
	}
	var k int
	allocs := testing.AllocsPerRun(2*coldSeeds, func() {
		if _, err := Check(cases[k%coldSeeds], CheckOptions{}); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("%.0f allocs per Check", allocs)
	if allocs > budget {
		t.Errorf("Check allocates %.0f times, budget %d", allocs, budget)
	}
}
