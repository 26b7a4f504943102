package regress_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/regress"
)

// synthProfile builds a minimal distinct canonical profile without running
// an engine — cheap enough for concurrency stress.
func synthProfile(experiment string, wait float64) *profile.Profile {
	return &profile.Profile{
		Schema:     profile.SchemaVersion,
		Experiment: experiment,
		Run:        profile.RunInfo{Clock: "virtual", Procs: 2, Threads: 1},
		Duration:   1,
		TotalTime:  2,
		Threshold:  0.005,
		Events:     4,
		Properties: []profile.Property{{
			Name: "late_sender", Wait: wait, Severity: wait / 2,
			Instances: 1, Significant: true,
		}},
	}
}

// TestStoreShardedLayout verifies that Put lands objects in the
// objects/<first-two-hex>/ fan-out.
func TestStoreShardedLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := synthProfile("shard_layout", 0.25)
	hash, err := store.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(dir, "objects", hash[:2], hash+".json")
	if _, err := os.Stat(sharded); err != nil {
		t.Fatalf("object not at sharded path %s: %v", sharded, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", hash+".json")); err == nil {
		t.Fatal("object also present at the unsharded path")
	}
	got, err := store.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash, _ := got.Hash(); gotHash != hash {
		t.Fatalf("round-trip hash %s, want %s", gotHash, hash)
	}
}

// TestStoreSetBaseline promotes an existing object to baseline without
// re-uploading it.
func TestStoreSetBaseline(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	p := synthProfile("promote", 0.125)
	hash, err := store.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetBaseline("promote", hash); err != nil {
		t.Fatal(err)
	}
	_, gotHash, err := store.Baseline("promote")
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != hash {
		t.Fatalf("baseline %s, want %s", gotHash, hash)
	}
	if err := store.SetBaseline("promote", "no-such-object"); err == nil {
		t.Fatal("SetBaseline accepted a missing object")
	}
}

// TestStoreConcurrentUse is the -race stress the server relies on: many
// goroutines saving baselines for distinct experiments while others read,
// with no lost updates in the refs index.
func TestStoreConcurrentUse(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	hashes := make([]string, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := synthProfile(fmt.Sprintf("conc_%02d", i), float64(i+1)/16)
			h, err := store.SaveBaseline(p)
			if err != nil {
				t.Errorf("SaveBaseline %d: %v", i, err)
				return
			}
			hashes[i] = h
		}(i)
	}
	// Concurrent readers: List and Baseline must never see a torn index.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := store.List(); err != nil {
					t.Errorf("List: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every writer's update survived: no read-modify-write was lost.
	for i := 0; i < writers; i++ {
		name := fmt.Sprintf("conc_%02d", i)
		_, h, err := store.Baseline(name)
		if err != nil {
			t.Fatalf("Baseline(%s): %v", name, err)
		}
		if h != hashes[i] {
			t.Fatalf("Baseline(%s) = %s, want %s", name, h, hashes[i])
		}
	}
}
