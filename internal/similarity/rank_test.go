package similarity_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/perturb"
	"repro/internal/profile"
	"repro/internal/similarity"
)

// perturbSeed matches the experiments layer so the ladder here is the
// one EXPERIMENTS.md documents.
const perturbSeed = 1

// perturbedComposite runs the clean composite program under the given
// perturbation level and engine, and returns its canonical profile plus
// the injected straggler ranks (the ground-truth oracle).
func perturbedComposite(t *testing.T, eng mpi.Engine, level, procs int) (*profile.Profile, []int) {
	t.Helper()
	m := perturb.NewModel(perturb.Level(perturbSeed, level))
	tr, err := mpi.Run(mpi.Options{Procs: procs, Perturb: m, Engine: eng}, func(c *mpi.Comm) {
		core.NegativeBalancedMPI(c, 0.02, 10)
	})
	if err != nil {
		t.Fatalf("L%d run: %v", level, err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	p, err := profile.FromRun(fmt.Sprintf("perturbed_L%d", level), tr, rep, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	return p, m.StragglerRanks(procs)
}

// TestClusterRanksFlagsInjectedStragglers is the acceptance check of the
// within-run miner: at every perturbation level, on both engines, the
// flagged outlier ranks are exactly the injected straggler ranks — zero
// false outliers on the clean and skew-only levels (0–1, which inject no
// stragglers), exactly the straggler at the levels that inject one (2–3),
// classified as a straggler (the rank the pack waits for).
func TestClusterRanksFlagsInjectedStragglers(t *testing.T) {
	const procs = 8
	for _, eng := range []mpi.Engine{mpi.EngineEvent, mpi.EngineGoroutine} {
		for level := 0; level <= 3; level++ {
			t.Run(fmt.Sprintf("%s/L%d", eng, level), func(t *testing.T) {
				p, want := perturbedComposite(t, eng, level, procs)
				rc := similarity.ClusterRanks(p, similarity.RankOptions{})
				got := outlierRanks(rc)
				if want == nil {
					want = []int{}
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("L%d outliers = %v, want %v (clusters %v, severity %.4f, gated %v)",
						level, got, want, rc.Clusters, rc.Severity, rc.Gated)
				}
				for _, f := range rc.Outliers {
					if f.Kind != similarity.KindStraggler {
						t.Errorf("rank %d classified %q, want %q (wait %.6fs, distance %.3f)",
							f.Rank, f.Kind, similarity.KindStraggler, f.Wait, f.Distance)
					}
				}
			})
		}
	}
}

// TestClusterRanksDeterministicAcrossEngines re-runs one straggler level
// on both engines and requires identical findings — the cross-engine
// determinism half of the acceptance criterion (profiles are already
// byte-identical across engines; the miner must not break that).
func TestClusterRanksDeterministicAcrossEngines(t *testing.T) {
	const procs = 8
	pEvent, _ := perturbedComposite(t, mpi.EngineEvent, 3, procs)
	pGo, _ := perturbedComposite(t, mpi.EngineGoroutine, 3, procs)
	rcEvent := similarity.ClusterRanks(pEvent, similarity.RankOptions{})
	rcGo := similarity.ClusterRanks(pGo, similarity.RankOptions{})
	if !reflect.DeepEqual(rcEvent, rcGo) {
		t.Fatalf("engines disagree:\nevent:     %+v\ngoroutine: %+v", rcEvent, rcGo)
	}
}

// TestClusterRanksSynthetic drives the clustering logic through
// hand-built profiles where the geometry is known exactly.
func TestClusterRanksSynthetic(t *testing.T) {
	mk := func(waits map[string][]float64, ranks int, severity float64) *profile.Profile {
		p := &profile.Profile{
			Schema:     profile.SchemaVersion,
			Experiment: "synthetic",
			Run:        profile.RunInfo{Procs: ranks, Threads: 1},
			Threshold:  0.005,
		}
		for name, perRank := range waits {
			prop := profile.Property{Name: name, Severity: severity, Significant: true}
			for r, w := range perRank {
				prop.Wait += w
				if w != 0 {
					prop.Locations = append(prop.Locations,
						profile.LocationWait{Rank: int32(r), Thread: 0, Wait: w})
				}
			}
			p.Properties = append(p.Properties, prop)
		}
		return p
	}

	t.Run("zero-wait straggler isolates", func(t *testing.T) {
		// Ranks 0–6 wait at the barrier; rank 7 (the straggler) never
		// waits — its zero vector is at distance 1 from the pack.
		p := mk(map[string][]float64{
			analyzer.PropWaitAtBarrier: {1, 1.1, 0.9, 1, 1.05, 0.95, 1, 0},
		}, 8, 0.02)
		rc := similarity.ClusterRanks(p, similarity.RankOptions{})
		if got := outlierRanks(rc); !reflect.DeepEqual(got, []int{7}) {
			t.Fatalf("outliers = %v, want [7] (clusters %v)", got, rc.Clusters)
		}
		if rc.Outliers[0].Kind != similarity.KindStraggler {
			t.Errorf("kind = %q, want straggler", rc.Outliers[0].Kind)
		}
	})

	t.Run("two stragglers", func(t *testing.T) {
		p := mk(map[string][]float64{
			analyzer.PropWaitAtBarrier: {1, 0, 1.1, 0.9, 1, 1.05, 0, 1},
		}, 8, 0.02)
		rc := similarity.ClusterRanks(p, similarity.RankOptions{})
		if got := outlierRanks(rc); !reflect.DeepEqual(got, []int{1, 6}) {
			t.Fatalf("outliers = %v, want [1 6]", got)
		}
	})

	t.Run("deviant waits elsewhere", func(t *testing.T) {
		// Rank 7 waits as much as everyone, but at a different property:
		// an outlier by *shape*, with wait at the pack median — deviant,
		// not straggler.
		p := mk(map[string][]float64{
			analyzer.PropWaitAtBarrier: {1, 1, 1, 1, 1, 1, 1, 0},
			analyzer.PropLateSender:    {0, 0, 0, 0, 0, 0, 0, 1},
		}, 8, 0.02)
		rc := similarity.ClusterRanks(p, similarity.RankOptions{})
		if got := outlierRanks(rc); !reflect.DeepEqual(got, []int{7}) {
			t.Fatalf("outliers = %v, want [7]", got)
		}
		if rc.Outliers[0].Kind != similarity.KindDeviant {
			t.Errorf("kind = %q, want deviant", rc.Outliers[0].Kind)
		}
	})

	t.Run("below gate is clean", func(t *testing.T) {
		p := mk(map[string][]float64{
			analyzer.PropWaitAtBarrier: {1, 1, 1, 1, 1, 1, 1, 0},
		}, 8, 0.001) // severity under the 0.005 gate
		rc := similarity.ClusterRanks(p, similarity.RankOptions{})
		if !rc.Gated || len(rc.Outliers) != 0 {
			t.Fatalf("gated = %v, outliers = %v; want gated, none", rc.Gated, rc.Outliers)
		}
	})

	t.Run("no majority flags nothing", func(t *testing.T) {
		// Two equal camps: no majority behavior, nothing to deviate from.
		p := mk(map[string][]float64{
			analyzer.PropWaitAtBarrier: {1, 1, 1, 1, 0, 0, 0, 0},
			analyzer.PropLateSender:    {0, 0, 0, 0, 1, 1, 1, 1},
		}, 8, 0.02)
		rc := similarity.ClusterRanks(p, similarity.RankOptions{})
		if len(rc.Outliers) != 0 {
			t.Fatalf("outliers = %v, want none (clusters %v)", rc.Outliers, rc.Clusters)
		}
	})

	t.Run("uniform pack flags nothing", func(t *testing.T) {
		p := mk(map[string][]float64{
			analyzer.PropWaitAtBarrier: {1, 1.02, 0.98, 1, 1.01, 0.99, 1, 1},
		}, 8, 0.02)
		rc := similarity.ClusterRanks(p, similarity.RankOptions{})
		if len(rc.Outliers) != 0 {
			t.Fatalf("outliers = %v, want none", rc.Outliers)
		}
	})
}

// outlierRanks returns just the flagged rank numbers, ascending.
func outlierRanks(rc similarity.RankClusters) []int {
	out := make([]int, 0, len(rc.Outliers))
	for _, f := range rc.Outliers {
		out = append(out, f.Rank)
	}
	return out
}
