package similarity

import (
	"math"
	"sort"

	"repro/internal/profile"
)

// Embedding geometry: a feature-hashed per-property severity block, a
// wait-concentration histogram block, a run-scale block, and one bias
// dimension that keeps every embedding non-zero (so cosine similarity
// is defined for clean profiles, which then all sit at similarity 1).
//
// Each block is normalized to unit length and weighted independently.
// Raw severities and wait shares are all non-negative, which would
// squeeze every profile into the positive orthant: pairwise angles stay
// tiny, and sign-LSH buckets collapse into a few giants.  Per-block
// normalization makes the sparse severity pattern — *which* properties
// a run exhibits — the dominant signal, the dense histogram block is
// additionally centered (its common DC component carries no
// information), and the result spreads the corpus over the sphere so
// 12-bit signatures actually partition it.
const (
	sevDims   = 32
	histDims  = 16
	scaleDims = 6
	biasDims  = 1
	// Dims is the dimensionality of profile embeddings.
	Dims = sevDims + histDims + scaleDims + biasDims
)

// Block weights: the property mix separates best, the wait shape
// refines within it, the run scale keeps 4-rank and 4096-rank runs of
// the same pathology from being conflated outright.
const (
	sevWeight   = 1.0
	histWeight  = 0.7
	scaleWeight = 0.3
	biasWeight  = 0.1
)

// Embed maps a profile to its fixed-dimension feature vector.  The
// embedding is a pure function of the profile bytes (all iteration
// orders are fixed), so an identical run embeds identically everywhere
// — the self-match guarantee of the index.
func Embed(p *profile.Profile) []float64 {
	v := make([]float64, Dims)
	sev := v[:sevDims]
	hist := v[sevDims : sevDims+histDims]
	scale := v[sevDims+histDims : sevDims+histDims+scaleDims]

	rankWait := map[int32]float64{}
	maxRank := int32(-1)
	for i := range p.Properties {
		prop := &p.Properties[i]
		if prop.Info {
			continue
		}
		sev[hashDim(prop.Name, sevDims)] += prop.Severity
		for _, lw := range prop.Locations {
			rankWait[lw.Rank] += lw.Wait
			if lw.Rank > maxRank {
				maxRank = lw.Rank
			}
		}
	}

	// Wait-concentration histogram: per-rank total-wait shares, sorted
	// descending, accumulated into histDims positional bins.  Rank count
	// varies across runs; relative position (heaviest first) does not.
	// Iteration is over sorted ranks: float accumulation order is part
	// of the embedding's determinism contract.
	ranks := make([]int32, 0, len(rankWait))
	for r := range rankWait {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	var tot float64
	for _, r := range ranks {
		tot += rankWait[r]
	}
	if tot > 0 {
		shares := make([]float64, 0, len(ranks))
		for _, r := range ranks {
			shares = append(shares, rankWait[r]/tot)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
		for i, s := range shares {
			bin := i * histDims / len(shares)
			hist[bin] += s
		}
		// Center the dense histogram block; the sparse severity block
		// stays uncentered so disjoint property mixes remain orthogonal.
		var mean float64
		for _, x := range hist {
			mean += x
		}
		mean /= float64(len(hist))
		for i := range hist {
			hist[i] -= mean
		}
	}

	// Run scale: one-hot log₂ bucket of the rank count.
	procs := p.Run.Procs
	if procs <= int(maxRank) {
		procs = int(maxRank) + 1
	}
	if procs > 0 {
		bucket := 0
		for n := procs; n >= 8 && bucket < scaleDims-1; n >>= 2 {
			bucket++ // 1–7, 8–31, 32–127, … ranks
		}
		scale[bucket] = 1
	}

	any := normalizeBlock(sev, sevWeight)
	any = normalizeBlock(hist, histWeight) || any
	normalizeBlock(scale, scaleWeight)
	if !any {
		// No recorded waits, no severities: a clean profile.  Only the
		// bias (and run scale) remain, at full strength, so clean runs
		// match other clean runs of the same scale first.
		v[Dims-1] = 1
		return v
	}
	v[Dims-1] = biasWeight
	return v
}

// normalizeBlock scales block to length weight (leaving an all-zero
// block alone) and reports whether it had any signal.
func normalizeBlock(block []float64, weight float64) bool {
	var norm float64
	for _, x := range block {
		norm += x * x
	}
	if norm == 0 {
		return false
	}
	norm = math.Sqrt(norm)
	for i := range block {
		block[i] *= weight / norm
	}
	return true
}

// hashDim feature-hashes a property name into [0, dims).
func hashDim(name string, dims int) int {
	h := uint64(0)
	for i := 0; i < len(name); i++ {
		h = mix(h, uint64(name[i]))
	}
	return int(h % uint64(dims))
}

// cosine is cos(a, b) from the dot product and squared norms of a and b,
// with zero-vector conventions mirroring cosineDistance (embeddings carry
// a bias dimension and are never zero, but the helper stays total).
func cosine(dot, na, nb float64) float64 {
	switch {
	case na == 0 && nb == 0:
		return 1
	case na == 0 || nb == 0:
		return 0
	}
	s := dot / math.Sqrt(na*nb)
	if s > 1 {
		return 1
	}
	return s
}

// mix folds a variadic key into 64 well-scrambled bits (splitmix64
// finalizer over a running combine) — the package's only randomness
// source, so hyperplanes and feature hashes are pure functions of their
// arguments.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
