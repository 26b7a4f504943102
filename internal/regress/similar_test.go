package regress_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/regress"
	"repro/internal/similarity"
)

// TestStoreSimilarSelfMatch: after EnsureIndex, every stored profile's
// nearest neighbor is itself at similarity 1.
func TestStoreSimilarSelfMatch(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		h, err := store.Put(similarity.SyntheticProfile(21, i))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	for i := 0; i < len(hashes); i += 7 {
		h := hashes[i]
		matches, probed, err := store.Similar(h, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 || matches[0].Hash != h {
			t.Fatalf("Similar(%s) top-1 = %+v, want self", h[:12], matches)
		}
		if matches[0].Similarity < 0.999999 {
			t.Fatalf("self similarity = %v", matches[0].Similarity)
		}
		if probed <= 0 {
			t.Fatalf("probed = %d", probed)
		}
	}
}

// TestStorePutUpdatesIndexIncrementally: once a store has an index,
// every subsequent Put keeps it current — and the incrementally grown
// index answers exactly like one rebuilt from scratch over the same
// objects (the rebuild ≡ incremental invariant of the CI smoke).
func TestStorePutUpdatesIndexIncrementally(t *testing.T) {
	incDir := filepath.Join(t.TempDir(), "inc")
	store, err := regress.Open(incDir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a few objects, then create the index (backfills them).
	for i := 0; i < 5; i++ {
		if _, err := store.Put(similarity.SyntheticProfile(33, i)); err != nil {
			t.Fatal(err)
		}
	}
	if similarity.IndexExists(filepath.Join(incDir, "similarity")) {
		t.Fatal("Put conjured up an index on an index-less store")
	}
	idx, err := store.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 5 {
		t.Fatalf("backfilled index has %d entries, want 5", idx.Len())
	}
	// Further Puts land in the index without another EnsureIndex walk.
	var lastHash string
	for i := 5; i < 20; i++ {
		if lastHash, err = store.Put(similarity.SyntheticProfile(33, i)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 20 {
		t.Fatalf("incremental index has %d entries, want 20", idx.Len())
	}
	if !idx.Has(lastHash) {
		t.Fatal("last Put missing from index")
	}

	// A second store over the same objects, rebuilt from nothing, must
	// answer queries identically.
	rebDir := filepath.Join(t.TempDir(), "reb")
	rebuilt, err := regress.Open(rebDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 19; i >= 0; i-- { // same profiles, reversed insertion order
		if _, err := rebuilt.Put(similarity.SyntheticProfile(33, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rebuilt.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i += 7 {
		p := similarity.SyntheticProfile(33, i)
		a, _, err := store.SimilarProfile(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := rebuilt.SimilarProfile(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: incremental %+v != rebuilt %+v", i, a, b)
		}
	}
}

// openIndexed opens a store at dir and ensures its similarity index.
func openIndexed(t testing.TB, dir string) *regress.Store {
	t.Helper()
	store, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	return store
}

// selfMatch fails unless the store's Similar over hash returns hash
// itself at the top.
func selfMatch(t *testing.T, store *regress.Store, hash string) {
	t.Helper()
	matches, _, err := store.Similar(hash, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].Hash != hash {
		t.Fatalf("Similar(%s) = %+v, want itself first", hash[:12], matches)
	}
}

// TestStoreSimilarSeesOtherHandle: a profile Put through a second handle
// on the same directory — another process, in production — is returned
// by the first handle's next Similar, with no re-listing of the store.
func TestStoreSimilarSeesOtherHandle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	a := openIndexed(t, dir)
	b, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.Put(similarity.SyntheticProfile(41, i)); err != nil {
			t.Fatal(err)
		}
	}
	hash, err := b.Put(similarity.SyntheticProfile(41, 99))
	if err != nil {
		t.Fatal(err)
	}
	selfMatch(t, a, hash)
	idx, err := a.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 11 {
		t.Fatalf("index Len = %d, want 11", idx.Len())
	}
}

// TestStoreSimilarAfterLogRebuilt: when another handle deletes and
// recreates the index log, the first handle rebuilds from the store —
// its answers cover every object, old and new, never a stale subset.
func TestStoreSimilarAfterLogRebuilt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	a := openIndexed(t, dir)
	var hashes []string
	for i := 0; i < 8; i++ {
		h, err := a.Put(similarity.SyntheticProfile(43, i))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	idx, err := a.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(idx.Path()); err != nil {
		t.Fatal(err)
	}
	b := openIndexed(t, dir) // recreates the log, backfilled from objects/
	h, err := b.Put(similarity.SyntheticProfile(43, 50))
	if err != nil {
		t.Fatal(err)
	}
	hashes = append(hashes, h)

	for _, h := range hashes {
		selfMatch(t, a, h)
	}
	if idx.Len() != len(hashes) {
		t.Fatalf("rebuilt index Len = %d, want %d", idx.Len(), len(hashes))
	}
	// a's appends now reach the recreated log.
	h, err = a.Put(similarity.SyntheticProfile(43, 51))
	if err != nil {
		t.Fatal(err)
	}
	selfMatch(t, b, h)
}

// TestStoreSimilarConcurrentPut: Similar and Put racing on one handle
// (atsd's workers) neither race nor miss: every query finds its own
// object.  Run under -race by `make race`.
func TestStoreSimilarConcurrentPut(t *testing.T) {
	store := openIndexed(t, filepath.Join(t.TempDir(), "store"))
	const writers, each = 4, 15
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h, err := store.Put(similarity.SyntheticProfile(47, w*each+i))
				if err != nil {
					t.Error(err)
					return
				}
				matches, _, err := store.Similar(h, 3)
				if err != nil {
					t.Error(err)
					return
				}
				found := false
				for _, m := range matches {
					found = found || m.Hash == h
				}
				if !found {
					t.Errorf("Similar(%s) missed its own object: %+v", h[:12], matches)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	idx, err := store.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != writers*each {
		t.Fatalf("index Len = %d, want %d", idx.Len(), writers*each)
	}
}

// BenchmarkStoreSimilar times one similarity query on a store that has
// already been indexed.  Index maintenance is O(new entries) — a stat
// per query here — so nothing in Similar lists the store any more; what
// grows with it is the LSH candidate set the query scores, reported as
// probed/op.
func BenchmarkStoreSimilar(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			store := openIndexed(b, filepath.Join(b.TempDir(), "store"))
			hashes := make([]string, n)
			for i := range hashes {
				h, err := store.Put(similarity.SyntheticProfile(53, i))
				if err != nil {
					b.Fatal(err)
				}
				hashes[i] = h
			}
			b.ResetTimer()
			probed := 0
			for i := 0; i < b.N; i++ {
				_, p, err := store.Similar(hashes[i%n], 5)
				if err != nil {
					b.Fatal(err)
				}
				probed += p
			}
			b.ReportMetric(float64(probed)/float64(b.N), "probed/op")
		})
	}
}

// TestStoreSimilarUnknownHash: querying a hash the store does not hold
// is an error, not an empty answer.
func TestStoreSimilarUnknownHash(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	missing := fmt.Sprintf("%064d", 7)
	if _, _, err := store.Similar(missing, 3); err == nil {
		t.Fatal("Similar on a missing hash succeeded")
	}
	if _, _, err := store.Similar("../../etc/passwd", 3); err == nil {
		t.Fatal("Similar accepted a non-hash")
	}
}
