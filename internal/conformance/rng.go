package conformance

const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	int32max  = 1<<31 - 1 // p
	lehmerMul = 48271
)

// go1Source draws exactly the sequence of math/rand's Go 1 source
// (rand.NewSource), the one every Case and result-cache key is drawn
// from, but seeds in O(1).  The Go 1 source fills all 607 words of its
// additive lagged Fibonacci state on Seed, with 1,841 steps of a Lehmer
// generator; a case then draws well under a hundred values.  Each word
// has a closed form in the normalised seed x₀:
//
//	vec[i] = (x₀·M[3i] mod p)<<40 ^ (x₀·M[3i+1] mod p)<<20 ^ (x₀·M[3i+2] mod p) ^ rngCooked[i]
//
// with p = 2³¹−1 and M[n] = 48271^(21+n) mod p, the three consecutive
// Lehmer states the Go 1 Seed loop packs into word i.  go1Source builds
// a word the first time Uint64 reads it and tracks built words in a
// bitmask that Seed clears; the draw arithmetic (tap, feed and the
// wrapping sum) is the Go 1 source's, unchanged.
// TestGo1SourceMatchesMathRand checks the replica against math/rand.
type go1Source struct {
	tap, feed int
	x0        uint64                     // normalised seed, in [1, p)
	built     [(rngLen + 63) / 64]uint64 // bit i: vec[i] holds word i
	vec       [rngLen]int64
}

// rngMult holds M[n] = 48271^(21+n) mod p for n < 3·rngLen.
var rngMult = func() (m [3 * rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lehmerMul % int32max
	}
	for n := range m {
		m[n] = x
		x = x * lehmerMul % int32max
	}
	return m
}()

func newGo1Source(seed int64) *go1Source {
	s := new(go1Source)
	s.Seed(seed)
	return s
}

// Seed normalises seed as the Go 1 source does and forgets every word.
func (s *go1Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.built = [len(s.built)]uint64{}
}

// word returns vec[i], building it from the seed on first use.
func (s *go1Source) word(i int) int64 {
	if s.built[i/64]&(1<<(i%64)) == 0 {
		s.built[i/64] |= 1 << (i % 64)
		m := rngMult[3*i : 3*i+3 : 3*i+3]
		s.vec[i] = int64(s.x0*m[0]%int32max)<<40 ^ int64(s.x0*m[1]%int32max)<<20 ^
			int64(s.x0*m[2]%int32max) ^ rngCooked[i]
	}
	return s.vec[i]
}

func (s *go1Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *go1Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}
