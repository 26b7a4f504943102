package similarity

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// queryTop returns the hashes of the top-k matches — the comparison
// currency of the persistence tests.
func queryTop(t *testing.T, pi *PersistentIndex, vec []float64, k int) []string {
	t.Helper()
	matches, _, err := pi.Query(vec, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(matches))
	for i, m := range matches {
		out[i] = m.Hash
	}
	return out
}

// TestPersistentIndexRoundTrip: entries added incrementally must replay
// identically from the log — including float32 rounding, so reopen ≡
// in-memory bit for bit.
func TestPersistentIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vecs[i] = Embed(SyntheticProfile(3, i))
		if err := pi.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := queryTop(t, pi, vecs[7], 5)
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), n)
	}
	if got := queryTop(t, re, vecs[7], 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened query = %v, want %v", got, want)
	}
}

// TestPersistentIndexRebuildEqualsIncremental: an index grown Add by
// Add must answer queries identically to one rebuilt from scratch over
// the same profiles — the CI smoke's invariant.
func TestPersistentIndexRebuildEqualsIncremental(t *testing.T) {
	const n = 80
	incDir, rebDir := t.TempDir(), t.TempDir()
	inc, err := OpenIndex(incDir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vecs[i] = Embed(SyntheticProfile(11, i))
		if err := inc.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	reb, err := OpenIndex(rebDir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer reb.Close()
	for i := 0; i < n; i++ { // same set, different insertion pattern
		if err := reb.Add(fakeHash(n-1-i), vecs[n-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < n; q += 13 {
		a := queryTop(t, inc, vecs[q], 10)
		b := queryTop(t, reb, vecs[q], 10)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: incremental %v != rebuilt %v", q, a, b)
		}
	}
}

// TestPersistentIndexTornTail: a torn final write (partial last line)
// is skipped on reopen; the intact prefix survives and the next Add
// lands cleanly after it.
func TestPersistentIndexTornTail(t *testing.T) {
	dir := t.TempDir()
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pi.Add(fakeHash(i), Embed(SyntheticProfile(5, i))); err != nil {
			t.Fatal(err)
		}
	}
	path := pi.Path()
	pi.Close()

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 9 {
		t.Fatalf("Len after torn tail = %d, want 9", re.Len())
	}
	if re.Has(fakeHash(9)) {
		t.Error("torn entry survived reopen")
	}
	// The dropped entry can be re-added and a further reopen sees 10.
	if err := re.Add(fakeHash(9), Embed(SyntheticProfile(5, 9))); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 10 {
		t.Fatalf("Len after repair = %d, want 10", re2.Len())
	}
}

// refresh calls Refresh and fails the test on error.
func refresh(t *testing.T, pi *PersistentIndex) (stale bool) {
	t.Helper()
	stale, err := pi.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	return stale
}

// TestPersistentIndexRefreshSeesOtherWriters: entries another handle
// appends to the shared log reach this handle through Refresh, and only
// through the tail — this handle's own entries are not replayed twice.
func TestPersistentIndexRefreshSeesOtherWriters(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Add(fakeHash(0), Embed(SyntheticProfile(9, 0))); err != nil {
		t.Fatal(err)
	}
	if refresh(t, a) || a.off != fileSize(t, a.Path()) {
		t.Fatal("own append left unreplayed bytes or reported stale")
	}
	for i := 1; i < 4; i++ {
		if err := b.Add(fakeHash(i), Embed(SyntheticProfile(9, i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.Has(fakeHash(2)) {
		t.Fatal("other writer's entry visible before Refresh")
	}
	if refresh(t, a) {
		t.Fatal("a grown log reported stale")
	}
	if a.Len() != 4 || !a.Has(fakeHash(3)) {
		t.Fatalf("after Refresh Len = %d, want 4", a.Len())
	}
	// b has not seen a's first entry yet; its own three stay single.
	if refresh(t, b) || b.Len() != 4 {
		t.Fatalf("b after Refresh Len = %d, want 4", b.Len())
	}
	if refresh(t, a) || a.Len() != 4 {
		t.Fatal("a no-op Refresh changed the index")
	}
}

// TestPersistentIndexRefreshTornLine: a line another writer has only
// partly appended is left unread until it is complete, then indexed.
func TestPersistentIndexRefreshTornLine(t *testing.T) {
	dir := t.TempDir()
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
	vec := Embed(SyntheticProfile(4, 1))
	for i := range vec {
		vec[i] = float64(float32(vec[i]))
	}
	blob, err := json.Marshal(indexEntry{Hash: fakeHash(1), Vec: vec})
	if err != nil {
		t.Fatal(err)
	}
	line := append(blob, '\n')
	half := len(line) / 2

	f, err := os.OpenFile(pi.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(line[:half]); err != nil {
		t.Fatal(err)
	}
	if refresh(t, pi) || pi.Has(fakeHash(1)) {
		t.Fatal("half-written line was indexed or reported stale")
	}
	if _, err := f.Write(line[half:]); err != nil {
		t.Fatal(err)
	}
	if refresh(t, pi) || !pi.Has(fakeHash(1)) {
		t.Fatal("completed line not indexed")
	}
	if got := queryTop(t, pi, vec, 1); len(got) != 1 || got[0] != fakeHash(1) {
		t.Fatalf("query after completion = %v", got)
	}
}

// TestPersistentIndexRefreshReplacedLog: a log deleted and recreated by
// another handle is reloaded, Refresh reports stale (the caller must
// backfill), and later appends land in the new log, not the orphan.
func TestPersistentIndexRefreshReplacedLog(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 3; i++ {
		if err := a.Add(fakeHash(i), Embed(SyntheticProfile(6, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(a.Path()); err != nil {
		t.Fatal(err)
	}
	b, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Add(fakeHash(7), Embed(SyntheticProfile(6, 7))); err != nil {
		t.Fatal(err)
	}

	if !refresh(t, a) {
		t.Fatal("Refresh over a replaced log did not report stale")
	}
	if a.Len() != 1 || !a.Has(fakeHash(7)) || a.Has(fakeHash(0)) {
		t.Fatalf("reloaded index Len = %d, want just the new log's entry", a.Len())
	}
	if refresh(t, a) {
		t.Fatal("stale reported twice for one replacement")
	}
	if err := a.Add(fakeHash(0), Embed(SyntheticProfile(6, 0))); err != nil {
		t.Fatal(err)
	}
	if refresh(t, b) || !b.Has(fakeHash(0)) {
		t.Fatal("append after reload missed the live log")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestPersistentIndexStampInvalidation: a log written under different
// LSH geometry or profile schema is discarded, not misread.
func TestPersistentIndexStampInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name          string
		params        Params
		profileSchema int
	}{
		{"geometry change", Params{Dims: Dims, Bits: 8, Tables: 2}, 1},
		{"profile schema bump", Params{}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pi, err := OpenIndex(dir, Params{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pi.Add(fakeHash(1), Embed(SyntheticProfile(1, 1))); err != nil {
				t.Fatal(err)
			}
			pi.Close()

			re, err := OpenIndex(dir, tc.params, tc.profileSchema)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 0 {
				t.Fatalf("stamp mismatch kept %d entries, want rebuild from empty", re.Len())
			}
		})
	}
}

// TestPersistentIndexGarbage: a log that is not an index at all is
// discarded and restarted, never fatal.
func TestPersistentIndexGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, IndexLogName), []byte("not json\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
	if pi.Len() != 0 {
		t.Fatalf("Len = %d over garbage log", pi.Len())
	}
	if err := pi.Add(fakeHash(1), Embed(SyntheticProfile(1, 1))); err != nil {
		t.Fatal(err)
	}
}
