package regress_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/profile"
	"repro/internal/regress"
)

// barrierProfile runs imbalance_at_mpi_barrier with the distribution's
// High overridden and returns its canonical profile — High is the knob
// the drift tests turn to inject a severity change.
func barrierProfile(t *testing.T, procs int, high float64) *profile.Profile {
	t.Helper()
	spec, ok := core.Get("imbalance_at_mpi_barrier")
	if !ok {
		t.Fatal("imbalance_at_mpi_barrier not registered")
	}
	a := spec.Defaults()
	ds := a.Distr["distr"]
	ds.High = high
	a.Distr["distr"] = ds
	tr, err := mpi.Run(mpi.Options{Procs: procs}, func(c *mpi.Comm) {
		spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: omp.Options{Threads: 1}}, a)
	})
	if err != nil {
		t.Fatalf("barrier run: %v", err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	p, err := profile.FromRun("barrier_drift", tr, rep, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreSaveAndRetrieve(t *testing.T) {
	store, err := regress.Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	p := barrierProfile(t, 4, 0.06)
	hash, err := store.SaveBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	got, gotHash, err := store.Baseline("barrier_drift")
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != hash {
		t.Errorf("baseline hash %s, saved %s", gotHash, hash)
	}
	wantHash, _ := got.Hash()
	if wantHash != hash {
		t.Errorf("stored object re-hashes to %s, want %s", wantHash, hash)
	}

	// Content addressing: re-saving the identical profile is idempotent.
	if _, err := store.SaveBaseline(p); err != nil {
		t.Fatal(err)
	}
	_, hist, err := store.BaselineRef("barrier_drift")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Errorf("history after idempotent save = %v", hist)
	}

	// A changed profile advances the baseline and grows the history.
	p2 := barrierProfile(t, 4, 0.12)
	hash2, err := store.SaveBaseline(p2)
	if err != nil {
		t.Fatal(err)
	}
	if hash2 == hash {
		t.Fatal("different run produced the same content hash")
	}
	_, cur, err := store.Baseline("barrier_drift")
	if err != nil {
		t.Fatal(err)
	}
	if cur != hash2 {
		t.Errorf("baseline not advanced: %s", cur)
	}
	_, hist, _ = store.BaselineRef("barrier_drift")
	if len(hist) != 2 || hist[0] != hash2 || hist[1] != hash {
		t.Errorf("history = %v, want [%s %s]", hist, hash2, hash)
	}

	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Experiment != "barrier_drift" ||
		entries[0].Versions != 2 || entries[0].TopProperty != analyzer.PropWaitAtBarrier {
		t.Errorf("list = %+v", entries)
	}
}

// TestPutWritesCanonicalBytes: Put encodes a new profile once and both
// names and writes the object from those bytes, so the object file is
// exactly p.Marshal() and hashes to the returned name and to p.Hash().
func TestPutWritesCanonicalBytes(t *testing.T) {
	store, err := regress.Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	p := barrierProfile(t, 4, 0.06)
	hash, err := store.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := store.ObjectReader(hash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("object bytes differ from p.Marshal():\n%s\nwant:\n%s", got, want)
	}
	sum := sha256.Sum256(got)
	if h := hex.EncodeToString(sum[:]); h != hash {
		t.Errorf("object bytes hash to %s, Put returned %s", h, hash)
	}
	if h, _ := p.Hash(); h != hash {
		t.Errorf("p.Hash() = %s, Put returned %s", h, hash)
	}
}

func TestStoreMissingBaseline(t *testing.T) {
	store, err := regress.Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Baseline("nope"); err == nil {
		t.Error("missing baseline did not error")
	}
}

// TestCompareIdenticalRunsIsClean is the zero-drift half of the
// acceptance criterion: an identical rerun must report no regression.
func TestCompareIdenticalRunsIsClean(t *testing.T) {
	base := barrierProfile(t, 4, 0.06)
	cur := barrierProfile(t, 4, 0.06)
	d := regress.Compare(base, cur, regress.Tolerances{})
	if d.Regressed() {
		t.Fatalf("identical rerun regressed:\n%s", d.Render())
	}
	if d.ConfigMismatch {
		t.Error("identical setups flagged as config mismatch")
	}
	if !strings.Contains(d.Render(), "zero drift") {
		t.Errorf("render lacks the all-clear:\n%s", d.Render())
	}
}

// TestCompareInjectedSeverityChange is the other half: doubling the
// property's imbalance must fail the check and the report must name the
// drifted property and its worst-outlier location.
func TestCompareInjectedSeverityChange(t *testing.T) {
	base := barrierProfile(t, 4, 0.06)
	cur := barrierProfile(t, 4, 0.12) // doubled imbalance span
	d := regress.Compare(base, cur, regress.Tolerances{})
	if !d.Regressed() {
		t.Fatalf("injected severity change not detected:\n%s", d.Render())
	}
	var bar *regress.PropertyDelta
	for i := range d.Deltas {
		if d.Deltas[i].Name == analyzer.PropWaitAtBarrier {
			bar = &d.Deltas[i]
		}
	}
	if bar == nil || !bar.WaitDrifted {
		t.Fatalf("wait_at_mpi_barrier drift not flagged: %+v", bar)
	}
	if bar.AbsDrift <= 0 {
		t.Errorf("drift direction wrong: %+v", bar)
	}
	if bar.WorstLocation == "" {
		t.Error("worst-outlier location missing")
	}
	out := d.Render()
	if !strings.Contains(out, analyzer.PropWaitAtBarrier) ||
		!strings.Contains(out, "worst location "+bar.WorstLocation) {
		t.Errorf("report does not name the property and worst location:\n%s", out)
	}
}

// synthetic builds a profile by hand so significance flips and shape
// shifts can be tested precisely.
func synthetic(waits map[string][]float64, sig map[string]bool) *profile.Profile {
	p := &profile.Profile{
		Schema:     profile.SchemaVersion,
		Experiment: "synthetic",
		ConfigHash: "cafecafecafe",
		Threshold:  0.01,
		TotalTime:  10,
	}
	// Insert in deterministic (sorted) order like FromRun does.
	names := make([]string, 0, len(waits))
	for name := range waits {
		names = append(names, name)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		locs := waits[name]
		prop := profile.Property{Name: name, Significant: sig[name]}
		for rank, w := range locs {
			prop.Wait += w
			prop.Locations = append(prop.Locations, profile.LocationWait{
				Rank: int32(rank), Wait: w,
			})
		}
		prop.Severity = prop.Wait / p.TotalTime
		p.Properties = append(p.Properties, prop)
	}
	return p
}

func TestCompareDetectionSetFlips(t *testing.T) {
	base := synthetic(map[string][]float64{
		"late_sender": {0.2, 0.2},
	}, map[string]bool{"late_sender": true})
	cur := synthetic(map[string][]float64{
		"wait_at_nxn": {0.3, 0.3},
	}, map[string]bool{"wait_at_nxn": true})
	d := regress.Compare(base, cur, regress.Tolerances{})
	var appeared, disappeared bool
	for _, pd := range d.Deltas {
		if pd.Name == "wait_at_nxn" && pd.Appeared {
			appeared = true
		}
		if pd.Name == "late_sender" && pd.Disappeared {
			disappeared = true
		}
	}
	if !appeared || !disappeared {
		t.Errorf("detection-set flips missed: appeared=%v disappeared=%v\n%s",
			appeared, disappeared, d.Render())
	}
}

func TestCompareShapeShiftWithoutTotalDrift(t *testing.T) {
	// Same total wait (0.4s), but the imbalance moved from an even split
	// to a single outlier rank — the similarity-analysis signal.
	base := synthetic(map[string][]float64{
		"late_sender": {0.2, 0.2, 0, 0},
	}, map[string]bool{"late_sender": true})
	cur := synthetic(map[string][]float64{
		"late_sender": {0, 0, 0.4, 0},
	}, map[string]bool{"late_sender": true})
	d := regress.Compare(base, cur, regress.Tolerances{})
	pd := d.Deltas[0]
	if pd.WaitDrifted {
		t.Errorf("total wait unchanged but drift flagged: %+v", pd)
	}
	if !pd.ShapeShifted || pd.Distance == 0 {
		t.Errorf("moved imbalance not flagged as shape shift: %+v", pd)
	}
	if pd.WorstLocation != "2.0" {
		t.Errorf("worst outlier = %q, want 2.0", pd.WorstLocation)
	}
	if !d.Regressed() {
		t.Error("shape shift alone should fail the check")
	}
}

func TestToleranceBoundsRespected(t *testing.T) {
	base := synthetic(map[string][]float64{"late_sender": {0.2, 0.2}},
		map[string]bool{"late_sender": true})
	cur := synthetic(map[string][]float64{"late_sender": {0.201, 0.201}},
		map[string]bool{"late_sender": true})
	// +0.5% drift: inside the default 2% tolerance…
	if d := regress.Compare(base, cur, regress.Tolerances{}); d.Regressed() {
		t.Errorf("sub-tolerance drift flagged:\n%s", d.Render())
	}
	// …but outside a tightened 0.1% tolerance.
	if d := regress.Compare(base, cur, regress.Tolerances{RelWait: 0.001}); !d.Regressed() {
		t.Error("tightened tolerance did not flag the drift")
	}
}

func TestCompareConfigMismatchWarns(t *testing.T) {
	base := synthetic(map[string][]float64{"late_sender": {0.2}},
		map[string]bool{"late_sender": true})
	cur := synthetic(map[string][]float64{"late_sender": {0.2}},
		map[string]bool{"late_sender": true})
	cur.ConfigHash = "deadbeef0000"
	d := regress.Compare(base, cur, regress.Tolerances{})
	if !d.ConfigMismatch {
		t.Error("config mismatch not detected")
	}
	if !strings.Contains(d.Render(), "config hash mismatch") {
		t.Error("render lacks config-mismatch warning")
	}
}
