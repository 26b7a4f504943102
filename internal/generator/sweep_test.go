package generator

import (
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
)

// TestSweepOMPParadigm drives the pure-OpenMP branch of Spec.Exec: the
// sweep must execute on a thread team (no MPI world) and still detect the
// property.
func TestSweepOMPParadigm(t *testing.T) {
	spec, _ := core.Get("imbalance_at_omp_barrier")
	pts := GridDistr(spec, "distr", []string{"block2", "linear"}, 1, 4)
	rs, err := Sweep(spec.Name, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2", len(rs))
	}
	for _, r := range rs {
		if r.Detected != analyzer.PropOMPBarrier {
			t.Errorf("point %s: detected %q", r.Point.Label, r.Detected)
		}
		if r.Wait <= 0 {
			t.Errorf("point %s: no waiting measured", r.Point.Label)
		}
		if r.TopProperty != analyzer.PropOMPBarrier {
			t.Errorf("point %s: top finding %q", r.Point.Label, r.TopProperty)
		}
		if r.Expected <= 0 {
			t.Errorf("point %s: expected %v, want positive closed form", r.Point.Label, r.Expected)
		}
	}
}

// TestSweepNoClosedForm covers properties without a theoretical wait:
// Expected must be negative and FormatSweep must render "n/a".
func TestSweepNoClosedForm(t *testing.T) {
	spec, _ := core.Get("dominated_by_communication")
	pts := GridFloat(spec, "msgwork", []float64{1e-5}, 4, 1)
	rs, err := Sweep(spec.Name, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Expected >= 0 {
		t.Fatalf("expected negative closed form, got %+v", rs)
	}
	out := FormatSweep(spec.Name, rs)
	if !strings.Contains(out, "n/a") {
		t.Errorf("FormatSweep did not render n/a for missing closed form:\n%s", out)
	}
}

// TestSweepPointError covers the error path: an unresolvable distribution
// makes the point fail and Sweep must surface the point label.
func TestSweepPointError(t *testing.T) {
	spec, _ := core.Get("imbalance_at_mpi_barrier")
	a := spec.Defaults()
	ds := a.Distr["distr"]
	ds.Name = "no_such_distribution"
	a.Distr["distr"] = ds
	_, err := Sweep(spec.Name, []SweepPoint{{Label: "bad-point", Args: a, Procs: 2, Threads: 1}})
	if err == nil {
		t.Fatal("sweep with unresolvable distribution succeeded")
	}
	if !strings.Contains(err.Error(), "bad-point") {
		t.Errorf("error does not name the failing point: %v", err)
	}
}

// TestGridBuilders pins the labels and environment fields of the two grid
// constructors.
func TestGridBuilders(t *testing.T) {
	spec, _ := core.Get("late_sender")
	pts := GridFloat(spec, "extrawork", []float64{0.01, 0.03}, 6, 2)
	if len(pts) != 2 {
		t.Fatalf("GridFloat: %d points", len(pts))
	}
	if pts[0].Label != "extrawork=0.01" || pts[1].Label != "extrawork=0.03" {
		t.Errorf("GridFloat labels: %q, %q", pts[0].Label, pts[1].Label)
	}
	if pts[0].Procs != 6 || pts[0].Threads != 2 {
		t.Errorf("GridFloat environment: %d x %d", pts[0].Procs, pts[0].Threads)
	}
	if pts[0].Args.Float["extrawork"] != 0.01 {
		t.Errorf("GridFloat did not set the parameter: %v", pts[0].Args.Float)
	}
	if pts[0].Args.Float["basework"] != core.DefaultBasework {
		t.Errorf("GridFloat did not keep defaults: %v", pts[0].Args.Float)
	}

	dspec, _ := core.Get("imbalance_at_mpi_barrier")
	dpts := GridDistr(dspec, "distr", []string{"peak"}, 4, 1)
	if len(dpts) != 1 || dpts[0].Label != "distr=peak" {
		t.Fatalf("GridDistr points: %+v", dpts)
	}
	if ds := dpts[0].Args.Distr["distr"]; ds.Name != "peak" || ds.Low != core.DefaultBasework {
		t.Errorf("GridDistr descriptor: %+v", ds)
	}
}
