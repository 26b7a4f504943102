package experiments

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/conformance"
	"repro/internal/rescache"
)

func TestPerturbedNegativeCorrectnessTable(t *testing.T) {
	rows, err := PerturbedNegativeCorrectness(io.Discard, 4, 2, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 levels x 3 programs", len(rows))
	}
	var perturbedWait float64
	for _, r := range rows {
		if r.Level == 0 && !r.Clean {
			t.Errorf("level 0 %s: spurious %s (%.2f%%) — level 0 must match the unperturbed table",
				r.Program, r.TopProperty, r.TopSeverity*100)
		}
		if r.Level == 2 && r.MaxWait > perturbedWait {
			perturbedWait = r.MaxWait
		}
	}
	if perturbedWait == 0 {
		t.Error("level-2 perturbation produced no measurable wait anywhere")
	}
}

// The whole table — runs, analysis, formatting — is a pure function of
// (levels, shape): two invocations emit identical bytes.
func TestPerturbedNegativeCorrectnessDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if _, err := PerturbedNegativeCorrectness(&b1, 4, 2, []int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := PerturbedNegativeCorrectness(&b2, 4, 2, []int{3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("perturbed table not reproducible:\n%s\n----\n%s", b1.String(), b2.String())
	}
}

// With a result cache installed, a warm rerun of the table replays every
// row from the cache — no cell misses, so no world executes — and prints
// the cold run's bytes.
func TestPerturbedNegativeCorrectnessWarmReplay(t *testing.T) {
	store, err := rescache.Open(filepath.Join(t.TempDir(), "rescache"))
	if err != nil {
		t.Fatal(err)
	}
	conformance.SetResultCache(store)
	defer conformance.SetResultCache(nil)

	levels := []int{0, 2}
	var cold, warm bytes.Buffer
	coldRows, err := PerturbedNegativeCorrectness(&cold, 4, 2, levels)
	if err != nil {
		t.Fatal(err)
	}
	afterCold := store.Stats()
	if afterCold.Puts != int64(len(coldRows)) {
		t.Fatalf("cold run wrote %d entries; want one per row (%d)", afterCold.Puts, len(coldRows))
	}
	if _, err := PerturbedNegativeCorrectness(&warm, 4, 2, levels); err != nil {
		t.Fatal(err)
	}
	afterWarm := store.Stats()
	if afterWarm.Misses != afterCold.Misses || afterWarm.Puts != afterCold.Puts {
		t.Fatalf("warm run executed worlds: stats %+v -> %+v", afterCold, afterWarm)
	}
	if hits := afterWarm.Hits - afterCold.Hits; hits != int64(len(coldRows)) {
		t.Fatalf("warm run hit %d cells; want %d", hits, len(coldRows))
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm table diverges from cold:\n%s\n----\n%s", cold.String(), warm.String())
	}
}
