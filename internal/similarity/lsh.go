package similarity

import (
	"fmt"
	"math"
	"sort"
)

// Params fixes the geometry of an LSH index.  Indexes persisted with
// one geometry are unreadable under another — the on-disk log is
// schema-stamped with these values (index.go).
type Params struct {
	// Dims is the embedding dimensionality (Embed's Dims).
	Dims int `json:"dims"`
	// Bits is the signature width per table: each of the Bits random
	// hyperplanes contributes the sign of one dot product.  More bits
	// mean smaller buckets (fewer candidates, lower recall per table).
	Bits int `json:"bits"`
	// Tables is the number of independent hash tables OR-ed together at
	// query time.  More tables recover the recall the bits take away.
	Tables int `json:"tables"`
}

// DefaultParams is the geometry the persistent store index uses:
// 20-bit signatures keep buckets small at 10⁴–10⁶ profiles, and 12
// tables hold near-neighbor recall above 0.9 (measured ≈ 0.99 with
// < 8% of candidates probed on the 10⁴-profile synthetic corpus —
// see TestQueryRecallAtScale and EXPERIMENTS.md).
var DefaultParams = Params{Dims: Dims, Bits: 20, Tables: 12}

func (p Params) withDefaults() Params {
	if p.Dims <= 0 {
		p.Dims = Dims
	}
	if p.Bits <= 0 || p.Bits > 62 {
		p.Bits = DefaultParams.Bits
	}
	if p.Tables <= 0 {
		p.Tables = DefaultParams.Tables
	}
	return p
}

// Match is one query result: a stored profile hash and its exact cosine
// similarity to the query embedding (candidates are re-ranked exactly,
// only the candidate *generation* is approximate).
type Match struct {
	Hash       string  `json:"hash"`
	Similarity float64 `json:"similarity"`
}

// Index is an in-memory random-hyperplane LSH index over profile
// embeddings.  It is not safe for concurrent mutation; the persistent
// wrapper (PersistentIndex) adds locking.
type Index struct {
	params Params
	// planes holds Tables×Bits hyperplanes of Dims Gaussian components,
	// flattened; they are a pure function of (table, bit, dim), so every
	// process reconstructs the identical geometry from Params alone.
	planes []float64
	tables []map[uint64][]int32
	hashes []string
	vecs   []float32 // len(hashes)×Dims, flattened
	byHash map[string]int32
}

// domPlane tags the hyperplane draws of the deterministic generator.
const domPlane = 0x515348 // "QSH"

// NewIndex builds an empty index with the given geometry (zero fields
// take DefaultParams).
func NewIndex(p Params) *Index {
	p = p.withDefaults()
	ix := &Index{
		params: p,
		planes: make([]float64, p.Tables*p.Bits*p.Dims),
		tables: make([]map[uint64][]int32, p.Tables),
		byHash: make(map[string]int32),
	}
	for i := range ix.planes {
		ix.planes[i] = gauss(uint64(i))
	}
	for t := range ix.tables {
		ix.tables[t] = make(map[uint64][]int32)
	}
	return ix
}

// gauss draws a deterministic standard normal for plane component i
// (Box–Muller over the package mixer).
func gauss(i uint64) float64 {
	u1 := (float64(mix(domPlane, i, 1)>>11) + 0.5) / (1 << 53)
	u2 := (float64(mix(domPlane, i, 2)>>11) + 0.5) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Params returns the index geometry.
func (ix *Index) Params() Params { return ix.params }

// Len returns the number of indexed profiles.
func (ix *Index) Len() int { return len(ix.hashes) }

// Has reports whether the profile hash is already indexed.
func (ix *Index) Has(hash string) bool {
	_, ok := ix.byHash[hash]
	return ok
}

// Add indexes one embedding under its profile hash.  Re-adding a known
// hash is a no-op (content addressing makes it idempotent).  The vector
// must have Params().Dims components.
func (ix *Index) Add(hash string, vec []float64) error {
	if len(vec) != ix.params.Dims {
		return fmt.Errorf("similarity: embedding has %d dims (index wants %d)", len(vec), ix.params.Dims)
	}
	if ix.Has(hash) {
		return nil
	}
	id := int32(len(ix.hashes))
	ix.hashes = append(ix.hashes, hash)
	for _, x := range vec {
		ix.vecs = append(ix.vecs, float32(x))
	}
	ix.byHash[hash] = id
	for t := 0; t < ix.params.Tables; t++ {
		sig := ix.signature(t, vec)
		ix.tables[t][sig] = append(ix.tables[t][sig], id)
	}
	return nil
}

// signature folds vec into table t's Bits-bit sign pattern.
func (ix *Index) signature(t int, vec []float64) uint64 {
	sig, _ := ix.signatureMargins(t, vec, false)
	return sig
}

// signatureMargins computes table t's signature and, when wantMargins
// is set, the bit indices ordered by how close their hyperplane dot
// product was to zero — the multiprobe flip order (the nearest-boundary
// bit is the likeliest to separate true neighbors).
func (ix *Index) signatureMargins(t int, vec []float64, wantMargins bool) (uint64, []int) {
	var sig uint64
	base := t * ix.params.Bits * ix.params.Dims
	var margins []float64
	if wantMargins {
		margins = make([]float64, ix.params.Bits)
	}
	for b := 0; b < ix.params.Bits; b++ {
		var dot float64
		row := ix.planes[base+b*ix.params.Dims : base+(b+1)*ix.params.Dims]
		for d, x := range vec {
			dot += row[d] * x
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
		if wantMargins {
			margins[b] = math.Abs(dot)
		}
	}
	if !wantMargins {
		return sig, nil
	}
	order := make([]int, ix.params.Bits)
	for b := range order {
		order[b] = b
	}
	sort.Slice(order, func(i, j int) bool {
		if margins[order[i]] != margins[order[j]] {
			return margins[order[i]] < margins[order[j]]
		}
		return order[i] < order[j] // tie-break on bit index: deterministic
	})
	return sig, order
}

// probeRounds caps adaptive multiprobe: at most this many one-bit flips
// per table beyond the base bucket.
const probeRounds = 8

// Query returns the k most similar stored profiles to the query
// embedding, plus the number of candidates probed (the work the index
// actually did; brute force would probe Len()).  Candidates are the
// union of the query's bucket in every table, re-ranked by exact cosine
// similarity and ordered (similarity desc, hash asc) so results are
// deterministic.  k ≤ 0 selects 10.
//
// When the base buckets yield fewer candidates than the probe floor
// (max(4k, 64)) — the small-corpus regime, where Bits-bit buckets are
// nearly singletons — the query multiprobes: per table it additionally
// opens the buckets reached by flipping one low-margin signature bit at
// a time, lowest margin first, until the floor is met or probeRounds
// flips are exhausted.  Large corpora meet the floor from the base
// buckets alone, so their probed fraction is unchanged.
func (ix *Index) Query(vec []float64, k int) ([]Match, int, error) {
	if len(vec) != ix.params.Dims {
		return nil, 0, fmt.Errorf("similarity: embedding has %d dims (index wants %d)", len(vec), ix.params.Dims)
	}
	floor := 4 * k
	if floor < 64 {
		floor = 64
	}
	seen := map[int32]struct{}{}
	sigs := make([]uint64, ix.params.Tables)
	var orders [][]int
	for t := 0; t < ix.params.Tables; t++ {
		sigs[t], _ = ix.signatureMargins(t, vec, false)
		for _, id := range ix.tables[t][sigs[t]] {
			seen[id] = struct{}{}
		}
	}
	for round := 0; round < probeRounds && len(seen) < floor && len(seen) < len(ix.hashes); round++ {
		if orders == nil {
			orders = make([][]int, ix.params.Tables)
			for t := range orders {
				_, orders[t] = ix.signatureMargins(t, vec, true)
			}
		}
		for t := 0; t < ix.params.Tables; t++ {
			flipped := sigs[t] ^ (1 << uint(orders[t][round]))
			for _, id := range ix.tables[t][flipped] {
				seen[id] = struct{}{}
			}
		}
	}
	nb := sqNorm(vec)
	matches := make([]Match, 0, len(seen))
	for id := range seen {
		matches = append(matches, Match{Hash: ix.hashes[id], Similarity: ix.sim(id, vec, nb)})
	}
	return topK(matches, k), len(seen), nil
}

// Scan is the exact (brute-force) query over every stored profile — the
// ground truth the LSH recall experiments compare Query against, and
// the fallback a caller may prefer for tiny stores.
func (ix *Index) Scan(vec []float64, k int) ([]Match, error) {
	if len(vec) != ix.params.Dims {
		return nil, fmt.Errorf("similarity: embedding has %d dims (index wants %d)", len(vec), ix.params.Dims)
	}
	nb := sqNorm(vec)
	matches := make([]Match, 0, len(ix.hashes))
	for id := range ix.hashes {
		matches = append(matches, Match{Hash: ix.hashes[id], Similarity: ix.sim(int32(id), vec, nb)})
	}
	return topK(matches, k), nil
}

// sim is the exact cosine similarity of stored entry id against vec, whose
// squared norm is nb.  The stored float32 values widen one at a time, in
// the order a float64 copy of the row would be summed.
func (ix *Index) sim(id int32, vec []float64, nb float64) float64 {
	row := ix.vecs[int(id)*ix.params.Dims : (int(id)+1)*ix.params.Dims]
	vec = vec[:len(row)]
	var dot, na float64
	for i, x := range row {
		s := float64(x)
		dot += s * vec[i]
		na += s * s
	}
	return cosine(dot, na, nb)
}

// sqNorm is the squared Euclidean norm of v, summed in index order.
func sqNorm(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	return n
}

// ranksBefore orders matches by similarity descending, then hash ascending.
func ranksBefore(a, b *Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.Hash < b.Hash
}

// topK orders the best k matches (similarity desc, hash asc) and drops
// the rest.  It selects them with a size-k heap whose root is the worst
// match kept, so only the k survivors are sorted.
func topK(matches []Match, k int) []Match {
	if k <= 0 {
		k = 10
	}
	if len(matches) > k {
		kept := matches[:k]
		for i := k/2 - 1; i >= 0; i-- {
			siftWorst(kept, i)
		}
		for i := k; i < len(matches); i++ {
			if ranksBefore(&matches[i], &kept[0]) {
				kept[0] = matches[i]
				siftWorst(kept, 0)
			}
		}
		matches = kept
	}
	sort.Slice(matches, func(i, j int) bool { return ranksBefore(&matches[i], &matches[j]) })
	return matches
}

// siftWorst restores the heap order of h below i: every match ranks
// before its parent, so h[0] is the worst.
func siftWorst(h []Match, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && ranksBefore(&h[worst], &h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
