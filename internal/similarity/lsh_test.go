package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fakeHash gives entry i a unique 64-hex-char identity without the cost
// of marshaling and hashing 10⁴ synthetic profiles.
func fakeHash(i int) string { return fmt.Sprintf("%064x", i) }

// TestQueryRecallAtScale is the sublinearity acceptance check: over
// 10⁴ indexed profiles, top-10 queries must reach recall ≥ 0.9 against
// exact brute force while probing < 10% of the stored candidates.
func TestQueryRecallAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-profile index in -short mode")
	}
	const (
		n       = 10_000
		queries = 100
		k       = 10
	)
	ix := NewIndex(DefaultParams)
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vecs[i] = Embed(SyntheticProfile(42, i))
		if err := ix.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var recallSum, probeSum float64
	for q := 0; q < queries; q++ {
		vec := vecs[q*(n/queries)]
		exact, err := ix.Scan(vec, k)
		if err != nil {
			t.Fatal(err)
		}
		approx, probed, err := ix.Query(vec, k)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[string]bool{}
		for _, m := range exact {
			truth[m.Hash] = true
		}
		hit := 0
		for _, m := range approx {
			if truth[m.Hash] {
				hit++
			}
		}
		recallSum += float64(hit) / float64(len(exact))
		probeSum += float64(probed) / float64(n)
	}
	recall := recallSum / queries
	probeFrac := probeSum / queries
	t.Logf("n=%d k=%d: recall=%.3f probed=%.2f%%", n, k, recall, probeFrac*100)
	if recall < 0.9 {
		t.Errorf("recall = %.3f, want ≥ 0.9", recall)
	}
	if probeFrac >= 0.10 {
		t.Errorf("probed %.2f%% of candidates on average, want < 10%%", probeFrac*100)
	}
}

// TestQueryRecallSmall is the small-corpus recall bound the similar
// smoke asserts: 500 synthetic profiles is the regime where 20-bit
// buckets are nearly singletons and recall rests on adaptive multiprobe
// widening the candidate set.
func TestQueryRecallSmall(t *testing.T) {
	const (
		n       = 500
		queries = 100
		k       = 10
	)
	ix := NewIndex(DefaultParams)
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vecs[i] = Embed(SyntheticProfile(42, i))
		if err := ix.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var recallSum float64
	for q := 0; q < queries; q++ {
		vec := vecs[q*(n/queries)]
		exact, err := ix.Scan(vec, k)
		if err != nil {
			t.Fatal(err)
		}
		approx, _, err := ix.Query(vec, k)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[string]bool{}
		for _, m := range exact {
			truth[m.Hash] = true
		}
		hit := 0
		for _, m := range approx {
			if truth[m.Hash] {
				hit++
			}
		}
		recallSum += float64(hit) / float64(len(exact))
	}
	recall := recallSum / queries
	t.Logf("n=%d k=%d: recall=%.3f", n, k, recall)
	if recall < 0.9 {
		t.Errorf("recall = %.3f on %d profiles, want ≥ 0.9", recall, n)
	}
}

// TestQuerySelfMatch: a stored profile's own embedding must come back
// first at similarity 1 — LSH buckets always contain the exact entry.
func TestQuerySelfMatch(t *testing.T) {
	ix := NewIndex(DefaultParams)
	for i := 0; i < 200; i++ {
		if err := ix.Add(fakeHash(i), Embed(SyntheticProfile(7, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 17 {
		got, _, err := ix.Query(Embed(SyntheticProfile(7, i)), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0].Hash != fakeHash(i) {
			t.Fatalf("query %d: top-1 = %+v, want self", i, got)
		}
		if got[0].Similarity < 0.999999 {
			t.Fatalf("query %d: self similarity = %v", i, got[0].Similarity)
		}
	}
}

// TestAddIdempotent: re-adding a hash must not duplicate entries or
// bucket members.
func TestAddIdempotent(t *testing.T) {
	ix := NewIndex(Params{})
	vec := Embed(SyntheticProfile(1, 0))
	for i := 0; i < 3; i++ {
		if err := ix.Add(fakeHash(0), vec); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after duplicate adds", ix.Len())
	}
	got, _, err := ix.Query(vec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("query returned %d matches, want 1", len(got))
	}
}

// TestQueryDimsMismatch: wrong-dimension vectors are rejected, not
// silently mis-hashed.
func TestQueryDimsMismatch(t *testing.T) {
	ix := NewIndex(DefaultParams)
	if err := ix.Add("x", make([]float64, 3)); err == nil {
		t.Error("Add accepted a 3-dim vector")
	}
	if _, _, err := ix.Query(make([]float64, 3), 5); err == nil {
		t.Error("Query accepted a 3-dim vector")
	}
}

// TestEmbedDeterministic: the embedding is a pure function of the
// profile bytes — the self-match guarantee of the persistent index.
func TestEmbedDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a := Embed(SyntheticProfile(9, i))
		b := Embed(SyntheticProfile(9, i))
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("profile %d dim %d: %v != %v", i, d, a[d], b[d])
			}
		}
		if len(a) != Dims {
			t.Fatalf("embedding has %d dims, want %d", len(a), Dims)
		}
	}
}

// sortTopK is the reference topK: sort every match, then truncate.
func sortTopK(matches []Match, k int) []Match {
	if k <= 0 {
		k = 10
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Similarity != matches[j].Similarity {
			return matches[i].Similarity > matches[j].Similarity
		}
		return matches[i].Hash < matches[j].Hash
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// TestTopKMatchesSort: the heap selection returns exactly what sorting
// every candidate returned, including the hash order among tied
// similarities.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		in := make([]Match, n)
		for i, p := range rng.Perm(n) {
			// Few distinct similarities, so most matches tie.
			in[i] = Match{Hash: fakeHash(p), Similarity: float64(rng.Intn(4)) / 4}
		}
		for _, k := range []int{-1, 0, 1, 2, 3, 10, n - 1, n, n + 5} {
			want := sortTopK(append([]Match(nil), in...), k)
			got := topK(append([]Match(nil), in...), k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d, k=%d:\n got %v\nwant %v", trial, n, k, got, want)
			}
		}
	}
}

// TestSimMatchesWidenedRow: sim, which widens the stored float32 row one
// value at a time, is bit-identical to the cosine of a float64 copy of
// the row.
func TestSimMatchesWidenedRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := NewIndex(Params{Dims: 24, Bits: 8, Tables: 2})
	vec := func() []float64 {
		v := make([]float64, 24)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for i := 0; i < 50; i++ {
		if err := ix.Add(fakeHash(i), vec()); err != nil {
			t.Fatal(err)
		}
	}
	q := vec()
	for id := range ix.hashes {
		stored := make([]float64, 24)
		for i, x := range ix.vecs[id*24 : (id+1)*24] {
			stored[i] = float64(x)
		}
		var dot, na, nb float64
		for i := range stored {
			dot += stored[i] * q[i]
			na += stored[i] * stored[i]
			nb += q[i] * q[i]
		}
		want := cosine(dot, na, nb)
		if got := ix.sim(int32(id), q, sqNorm(q)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("entry %d: sim %v, widened copy %v", id, got, want)
		}
	}
}
