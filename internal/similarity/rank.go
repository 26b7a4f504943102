// Package similarity mines the wait vectors the test suite already
// records, in the spirit of the Liu et al. SPMD similarity analysis: it
// clusters per-rank behavior vectors within one run to flag outlier
// ranks without a closed-form oracle, and embeds whole profiles into a
// fixed-dimension feature space indexed by random-hyperplane LSH so a
// million-profile store answers "which past run does this regression
// look like?" in sublinear time.
//
// Within-run clustering (ClusterRanks) normalizes each rank's
// per-property wait vector to unit sum and single-links ranks under a
// cosine-distance radius.  The decisive signal for injected stragglers
// is structural, not proportional: a straggler is the rank everyone
// else waits *for*, so its own wait vector is (near) zero while the
// pack's vectors agree — under the convention that the zero vector is
// at distance 1 from every non-zero vector, the straggler isolates
// cleanly.  A severity gate keeps quiet runs (nothing significant to
// cluster) from producing noise-driven outliers.
//
// Cross-run search (Embed + Index) is specified in embed.go / lsh.go /
// index.go; doc/ARCHITECTURE.md documents the layout and invalidation
// discipline of the persistent index.
package similarity

import (
	"math"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/profile"
)

// Outlier classification kinds.
const (
	// KindStraggler marks an outlier rank whose own recorded wait is
	// below the majority median — the rank the others wait for.
	KindStraggler = "straggler"
	// KindDeviant marks any other behavioral outlier (a rank that waits
	// in different places than the pack).
	KindDeviant = "deviant"
)

// RankOptions tunes ClusterRanks.  The zero value selects the defaults.
type RankOptions struct {
	// Epsilon is the single-linkage merge radius in cosine distance
	// (default 0.35): ranks closer than this end up in one cluster.
	Epsilon float64
	// Gate is the minimum total non-info wait severity a run must show
	// before clustering is attempted (default: the profile's analyzer
	// threshold, or 0.005 when the profile records none).  Below it the
	// run is considered clean: wait vectors are then dominated by noise
	// and any cluster structure is meaningless.
	Gate float64
	// MaxOutlierFrac bounds the share of ranks a cluster may hold and
	// still be called an outlier group (default 0.25): when "outliers"
	// approach half the run there is no majority behavior to deviate
	// from.
	MaxOutlierFrac float64
}

func (o RankOptions) withDefaults(p *profile.Profile) RankOptions {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.35
	}
	if o.Gate <= 0 {
		if p != nil && p.Threshold > 0 {
			o.Gate = p.Threshold
		} else {
			o.Gate = 0.005
		}
	}
	if o.MaxOutlierFrac <= 0 {
		o.MaxOutlierFrac = 0.25
	}
	return o
}

// RankFinding is one flagged outlier rank — the payload of an
// analyzer.PropRankOutlier finding.
type RankFinding struct {
	Rank int `json:"rank"`
	// Kind is KindStraggler or KindDeviant.
	Kind string `json:"kind"`
	// Distance is the cosine distance from the rank's normalized wait
	// vector to its nearest majority-cluster rank.
	Distance float64 `json:"distance"`
	// Wait is the rank's total recorded waiting time in seconds.
	Wait float64 `json:"wait_s"`
}

// RankClusters is the result of clustering one run's ranks.
type RankClusters struct {
	// Ranks is the number of ranks clustered.
	Ranks int
	// Severity is the gate signal: the run's total non-info wait
	// severity.
	Severity float64
	// Gated reports that Severity fell below the gate and no clustering
	// was attempted (Clusters and Outliers are empty).
	Gated bool
	// Clusters partitions the ranks, ordered by smallest member; each
	// cluster lists its ranks ascending.
	Clusters [][]int
	// Outliers holds the flagged ranks, ascending by rank.  Empty when
	// the run has no majority behavior to deviate from.
	Outliers []RankFinding
}

// ClusterRanks clusters the per-rank wait vectors of one profile and
// flags outlier ranks.  The result is a pure function of the profile
// bytes (iteration orders are fixed), so the same run flags the same
// ranks on every engine and every machine.
func ClusterRanks(p *profile.Profile, opt RankOptions) RankClusters {
	opt = opt.withDefaults(p)
	ranks := p.Run.Procs
	vecs, waits, severity := rankVectors(p, &ranks)
	rc := RankClusters{Ranks: ranks, Severity: severity}
	if ranks == 0 {
		return rc
	}
	if severity < opt.Gate {
		rc.Gated = true
		return rc
	}

	// Unit-sum normalize each rank's vector; an all-zero vector stays
	// zero (the straggler signature).
	for _, v := range vecs {
		var tot float64
		for _, w := range v {
			tot += w
		}
		if tot > 0 {
			for i := range v {
				v[i] /= tot
			}
		}
	}

	// Single-linkage: union ranks whose cosine distance is within the
	// radius.  O(R²) pairs — within-run rank counts are small next to
	// the cross-run index sizes.
	parent := make([]int, ranks)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for a := 0; a < ranks; a++ {
		for b := a + 1; b < ranks; b++ {
			if cosineDistance(vecs[a], vecs[b]) <= opt.Epsilon {
				ra, rb := find(a), find(b)
				if ra != rb {
					if ra > rb {
						ra, rb = rb, ra
					}
					parent[rb] = ra
				}
			}
		}
	}
	members := map[int][]int{}
	for r := 0; r < ranks; r++ {
		root := find(r)
		members[root] = append(members[root], r)
	}
	roots := make([]int, 0, len(members))
	for root := range members {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		rc.Clusters = append(rc.Clusters, members[root])
	}

	// Majority behavior: the one cluster holding more than half the
	// ranks.  Without it the run is ambiguous and nothing is flagged.
	majority := -1
	for i, cl := range rc.Clusters {
		if 2*len(cl) > ranks {
			majority = i
			break
		}
	}
	if majority < 0 {
		return rc
	}
	majorityWaits := make([]float64, 0, len(rc.Clusters[majority]))
	for _, r := range rc.Clusters[majority] {
		majorityWaits = append(majorityWaits, waits[r])
	}
	medianWait := median(majorityWaits)

	maxOutlier := int(opt.MaxOutlierFrac * float64(ranks))
	for i, cl := range rc.Clusters {
		if i == majority || len(cl) > maxOutlier {
			continue
		}
		for _, r := range cl {
			f := RankFinding{Rank: r, Kind: KindDeviant, Wait: waits[r], Distance: math.Inf(1)}
			for _, m := range rc.Clusters[majority] {
				if d := cosineDistance(vecs[r], vecs[m]); d < f.Distance {
					f.Distance = d
				}
			}
			if f.Wait < medianWait {
				f.Kind = KindStraggler
			}
			rc.Outliers = append(rc.Outliers, f)
		}
	}
	sort.Slice(rc.Outliers, func(i, j int) bool { return rc.Outliers[i].Rank < rc.Outliers[j].Rank })
	return rc
}

// rankVectors builds one wait vector per rank over the profile's
// component properties (non-info, excluding the total_waiting aggregate),
// summing threads into their rank.  It also returns each rank's total
// wait and the run's gate severity.  *ranks is grown to cover every
// location seen when the profile does not record the proc count.
func rankVectors(p *profile.Profile, ranks *int) (vecs [][]float64, waits []float64, severity float64) {
	props := make([]*profile.Property, 0, len(p.Properties))
	var totalSeen bool
	for i := range p.Properties {
		prop := &p.Properties[i]
		if prop.Info {
			continue
		}
		if prop.Name == analyzer.PropTotalWaiting {
			severity += prop.Severity
			totalSeen = true
			continue
		}
		props = append(props, prop)
		for _, lw := range prop.Locations {
			if int(lw.Rank) >= *ranks {
				*ranks = int(lw.Rank) + 1
			}
		}
	}
	if !totalSeen {
		for _, prop := range props {
			severity += prop.Severity
		}
	}
	vecs = make([][]float64, *ranks)
	waits = make([]float64, *ranks)
	for r := range vecs {
		vecs[r] = make([]float64, len(props))
	}
	for pi, prop := range props {
		for _, lw := range prop.Locations {
			r := int(lw.Rank)
			vecs[r][pi] += lw.Wait
			waits[r] += lw.Wait
		}
	}
	return vecs, waits, severity
}

// cosineDistance is 1 − cos(a, b) with the zero-vector conventions the
// straggler signature relies on: two zero vectors are identical
// (distance 0) and a zero vector is maximally far (distance 1) from any
// non-zero vector.
func cosineDistance(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0 || nb == 0:
		return 1
	}
	d := 1 - dot/math.Sqrt(na*nb)
	if d < 0 {
		return 0 // clamp float noise
	}
	return d
}

// median of a non-empty slice (copied, not mutated).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
