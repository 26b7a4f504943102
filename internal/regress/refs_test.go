package regress_test

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/regress"
)

// TestSaveBaselineAcrossHandles: two Store handles on one directory — as
// atsd and a concurrent `atsregress save` are — must serialize their
// refs.json read-modify-write against each other, not just within one
// handle.  Every call succeeds (no torn refs.json is ever parsed) and the
// shared history holds every save, each handle's in its own order.
func TestSaveBaselineAcrossHandles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	const handles, saves = 2, 200
	hashes := make([][]string, handles)
	var wg sync.WaitGroup
	for h := 0; h < handles; h++ {
		store, err := regress.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h int, store *regress.Store) {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				hash, err := store.SaveBaseline(synthProfile("shared", float64(h*saves+i+1)/1e4))
				if err != nil {
					t.Errorf("handle %d save %d: %v", h, i, err)
					continue
				}
				hashes[h] = append(hashes[h], hash)
			}
		}(h, store)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	store, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, hist, err := store.BaselineRef("shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != handles*saves {
		t.Fatalf("history has %d entries, want %d: updates were lost", len(hist), handles*saves)
	}
	pos := make(map[string]int, len(hist))
	for i, hash := range hist {
		pos[hash] = i
	}
	for h, own := range hashes {
		for i, hash := range own {
			at, ok := pos[hash]
			if !ok {
				t.Fatalf("handle %d save %d (%s) missing from history", h, i, hash[:12])
			}
			// History is newest first, so a later save sits earlier.
			if i > 0 && at > pos[own[i-1]] {
				t.Fatalf("handle %d: save %d listed after save %d", h, i, i-1)
			}
		}
	}
}
