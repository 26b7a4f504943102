package conformance

import (
	"math"
	"math/rand"
	"testing"
)

// equivSeeds are the seeds TestGo1SourceMatchesMathRand draws from: the
// edges of the Go 1 seed reduction (0, ±1, multiples of 2³¹−1 and their
// neighbours, the int64 extremes, uint64 seeds at and above 2⁶³ as
// Generate passes them), small and campaign-sized seeds, and a few
// thousand spread over the whole int64 range.
func equivSeeds() []int64 {
	const p = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, -2, 89482311, -89482311,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / p * p, math.MinInt64 / p * p}
	for k := int64(-3); k <= 3; k++ {
		for d := int64(-2); d <= 2; d++ {
			seeds = append(seeds, k*p+d, k*1_000_003*p+d)
		}
	}
	for _, u := range []uint64{1 << 63, 1<<63 + 1, 1<<63 + p, 1<<64 - 1, 1<<64 - p, 1<<64 - 1_000_000*p} {
		seeds = append(seeds, int64(u))
	}
	for s := int64(1); s <= 1000; s++ {
		seeds = append(seeds, s, 1_000_000+s, 302_000_000+s)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestGo1SourceMatchesMathRand: one reseeded go1Source, as rngPool reuses
// it, draws what a fresh rand.New(rand.NewSource(seed)) draws through
// every method Generate and its callers use.  Each seed draws more than
// two full turns of the 607-word state, so every word is built and the
// tap and feed indices wrap.
func TestGo1SourceMatchesMathRand(t *testing.T) {
	got := rand.New(newGo1Source(0))
	var gp, wp [10]int
	for _, seed := range equivSeeds() {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for j := 0; j < 160; j++ {
			n := j%40 + 1 // powers of two and not
			var g, w any
			switch j % 8 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Intn(n), want.Intn(n)
			case 3:
				g, w = got.Int31n(int32(n)), want.Int31n(int32(n))
			case 4:
				g, w = got.Float64(), want.Float64()
			case 5:
				g, w = got.Intn(1<<40+n), want.Intn(1<<40+n) // the Int63n path
			case 6:
				g, w = got.Int31n(1<<30+int32(n)), want.Int31n(1<<30+int32(n)) // rejection
			case 7:
				for i := range gp {
					gp[i], wp[i] = i, i
				}
				got.Shuffle(len(gp), func(i, j int) { gp[i], gp[j] = gp[j], gp[i] })
				want.Shuffle(len(wp), func(i, j int) { wp[i], wp[j] = wp[j], wp[i] })
				g, w = gp, wp
			}
			if g != w {
				t.Fatalf("seed %d, draw %d (method %d): go1Source %v, math/rand %v", seed, j, j%8, g, w)
			}
		}
		// 160 calls drew at least 20·(7+9) = 320 values; add two
		// full turns of the state.
		for j := 0; j < 2*rngLen; j++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, tail draw %d: go1Source %d, math/rand %d", seed, j, g, w)
			}
		}
	}
}

// TestReseedAndDrawAllocateNothing: a pooled generator reseeds and draws
// a case's worth of values (Generate's draw pattern) without allocating,
// and Generate stays at its allocation count (the case, its prop slice
// and argument maps, averaged over BenchmarkCheckCachedHit's seeds).
func TestReseedAndDrawAllocateNothing(t *testing.T) {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	pool := DefaultPool()
	var seed int64
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		rng.Seed(seed)
		rng.Intn(5)
		rng.Intn(3)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for k := 0; k < 20; k++ {
			rng.Float64()
			rng.Intn(16)
		}
	})
	if allocs != 0 {
		t.Errorf("a reseed and a case's draws allocate %.1f times, want 0", allocs)
	}

	const seeds, budget = 64, 12
	var s uint64
	allocs = testing.AllocsPerRun(4*seeds, func() {
		Generate(s%seeds+1, Config{})
		s++
	})
	t.Logf("%.1f allocs per Generate", allocs)
	if allocs > budget {
		t.Errorf("Generate allocates %.1f times, budget %d", allocs, budget)
	}
}
