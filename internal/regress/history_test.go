package regress_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/regress"
)

// TestHistoryOrderingUnderRepeatedSetBaseline: History must list every
// baseline move newest first, must not duplicate a no-op re-point, and
// must record a hash again when the baseline genuinely returns to it.
func TestHistoryOrderingUnderRepeatedSetBaseline(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	a := synthProfile("exp", 0.5)
	b := synthProfile("exp", 0.75)
	hashA, err := store.SaveBaseline(a)
	if err != nil {
		t.Fatal(err)
	}
	hashB, err := store.SaveBaseline(b)
	if err != nil {
		t.Fatal(err)
	}

	// Re-pointing at the current baseline is a no-op for history.
	if err := store.SetBaseline("exp", hashB); err != nil {
		t.Fatal(err)
	}
	_, hist, err := store.BaselineRef("exp")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{hashB, hashA}; !reflect.DeepEqual(hist, want) {
		t.Fatalf("history after no-op re-point = %v, want %v", hist, want)
	}

	// Moving back to A is a real move and prepends again.
	if err := store.SetBaseline("exp", hashA); err != nil {
		t.Fatal(err)
	}
	if err := store.SetBaseline("exp", hashA); err != nil { // and a second no-op
		t.Fatal(err)
	}
	_, hist, err = store.BaselineRef("exp")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{hashA, hashB, hashA}; !reflect.DeepEqual(hist, want) {
		t.Fatalf("history after move back = %v, want %v", hist, want)
	}

	// The baseline ref agrees with the head of the history.
	_, cur, err := store.Baseline("exp")
	if err != nil {
		t.Fatal(err)
	}
	if cur != hashA {
		t.Fatalf("baseline = %s, want %s", cur, hashA)
	}
}

// TestHistorySetBaselineSharded: SetBaseline must resolve objects Put
// wrote into their shards, and the history must record every move.
func TestHistorySetBaselineSharded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for _, wait := range []float64{0.5, 0.75} {
		hash, err := store.Put(synthProfile("exp", wait))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "objects", hash[:2], hash+".json")); err != nil {
			t.Fatalf("object not sharded: %v", err)
		}
		hashes = append(hashes, hash)
	}
	a, b := hashes[0], hashes[1]
	for _, hash := range []string{a, b, a} {
		if err := store.SetBaseline("exp", hash); err != nil {
			t.Fatalf("SetBaseline %s: %v", hash[:12], err)
		}
	}
	_, hist, err := store.BaselineRef("exp")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{a, b, a}; !reflect.DeepEqual(hist, want) {
		t.Fatalf("history = %v, want %v", hist, want)
	}
}
