package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perturb"
)

// Level 0 of the robustness sweep must be bit-identical to the
// unperturbed oracle: same outcome, same profile hash.
func TestRobustLevelZeroMatchesUnperturbed(t *testing.T) {
	cs := Generate(11, Config{})
	base, err := Check(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := CheckRobust(cs, CheckOptions{}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !ro.OK() {
		t.Fatalf("level-0 sweep failed: %+v", ro.FailOutcome().Violations)
	}
	if ro.Outcomes[0].Hash != base.Hash {
		t.Fatalf("level 0 hash %s != unperturbed hash %s", ro.Outcomes[0].Hash, base.Hash)
	}
	if ro.Outcomes[0].Events != base.Events {
		t.Fatalf("level 0 events %d != unperturbed %d", ro.Outcomes[0].Events, base.Events)
	}
}

// A non-zero perturbation level must actually perturb: the profile hash
// changes relative to level 0, and — because the model is a pure function
// of the profile — two sweeps of the same case agree level by level.
func TestRobustPerturbsAndIsDeterministic(t *testing.T) {
	cs := Generate(11, Config{})
	ro1, err := CheckRobust(cs, CheckOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ro1.OK() {
		t.Fatalf("robust sweep failed at level %d: %+v", ro1.Levels[ro1.FailedAt], ro1.FailOutcome().Violations)
	}
	if len(ro1.Outcomes) != len(DefaultLevels) {
		t.Fatalf("got %d outcomes, want %d", len(ro1.Outcomes), len(DefaultLevels))
	}
	changed := false
	for i := 1; i < len(ro1.Outcomes); i++ {
		if ro1.Outcomes[i].Hash != ro1.Outcomes[0].Hash {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("no perturbation level changed the profile hash — the model is not wired in")
	}
	ro2, err := CheckRobust(cs, CheckOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ro1.Outcomes {
		if ro1.Outcomes[i].Hash != ro2.Outcomes[i].Hash {
			t.Fatalf("level %d not reproducible: %s != %s",
				ro1.Levels[i], ro1.Outcomes[i].Hash, ro2.Outcomes[i].Hash)
		}
	}
}

// The calibrated noise floor is positive under perturbation, zero without,
// independent of the profile seed, and cached.
func TestCalibratedNoiseFloor(t *testing.T) {
	if f := CalibratedNoiseFloor(4, 2, perturb.Profile{}); f != 0 {
		t.Fatalf("zero profile floor = %v, want 0", f)
	}
	f1 := CalibratedNoiseFloor(4, 2, perturb.Level(1, 2))
	if f1 <= 0 {
		t.Fatalf("level-2 calibrated floor = %v, want > 0", f1)
	}
	if f2 := CalibratedNoiseFloor(4, 2, perturb.Level(99, 2)); f2 != f1 {
		t.Fatalf("floor depends on profile seed: %v != %v", f2, f1)
	}
	if f3 := CalibratedNoiseFloor(4, 2, perturb.Level(1, 3)); f3 <= f1 {
		t.Fatalf("level-3 floor %v not above level-2 floor %v", f3, f1)
	}
}

// A defective analyzer (simulated by dropping a property) must still be
// caught under perturbation: robustness widens tolerances, it does not
// blind the oracle.
func TestRobustStillCatchesDroppedProperty(t *testing.T) {
	var cs Case
	drop := ""
	for seed := uint64(1); seed <= 50 && drop == ""; seed++ {
		cs = Generate(seed, Config{})
		for _, cp := range cs.Props {
			spec, _ := core.Get(cp.Name)
			if w := expectedWait(cs, spec, cp); w > 0 {
				drop = spec.Detects
				break
			}
		}
	}
	if drop == "" {
		t.Fatal("no seed in 1..50 generated a closed-form property")
	}
	ro, err := CheckRobust(cs, CheckOptions{DropProperty: drop}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ro.OK() {
		t.Fatalf("dropping %s went unnoticed across the whole sweep", drop)
	}
}
