package trace

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// refStatsBuilder is the map-based flat-profile builder StatsBuilder
// replaced: one location-map lookup per event, two region-map lookups
// per Exit.  StatsBuilder must produce bit-identical Stats.
type refStatsBuilder struct {
	names   RegionNamer
	stacks  map[Location][]statsFrame
	first   map[Location]float64
	last    map[Location]float64
	regions map[string]map[Location]*RegionStat
}

func newRefStatsBuilder(names RegionNamer) *refStatsBuilder {
	return &refStatsBuilder{
		names:   names,
		stacks:  make(map[Location][]statsFrame),
		first:   make(map[Location]float64),
		last:    make(map[Location]float64),
		regions: make(map[string]map[Location]*RegionStat),
	}
}

func (rb *refStatsBuilder) Add(ev *Event) {
	if _, ok := rb.first[ev.Loc]; !ok {
		rb.first[ev.Loc] = ev.Time
	}
	rb.last[ev.Loc] = ev.Time
	switch ev.Kind {
	case KindEnter:
		rb.stacks[ev.Loc] = append(rb.stacks[ev.Loc], statsFrame{
			region: rb.names.RegionName(ev.Region), enter: ev.Time,
		})
	case KindExit:
		st := rb.stacks[ev.Loc]
		if len(st) == 0 {
			return
		}
		f := st[len(st)-1]
		st = st[:len(st)-1]
		rb.stacks[ev.Loc] = st
		incl := ev.Time - f.enter
		excl := incl - f.child
		if len(st) > 0 {
			st[len(st)-1].child += incl
		}
		byLoc := rb.regions[f.region]
		if byLoc == nil {
			byLoc = make(map[Location]*RegionStat)
			rb.regions[f.region] = byLoc
		}
		rs := byLoc[ev.Loc]
		if rs == nil {
			rs = &RegionStat{Region: f.region, Loc: ev.Loc}
			byLoc[ev.Loc] = rs
		}
		rs.Count++
		rs.Inclusive += incl
		rs.Exclusive += excl
	}
}

func (rb *refStatsBuilder) Finish() *Stats {
	s := &Stats{PerLocation: make(map[Location]float64), Regions: rb.regions}
	for _, loc := range sortedLocs(rb.first) {
		span := rb.last[loc] - rb.first[loc]
		s.PerLocation[loc] = span
		s.TotalTime += span
	}
	return s
}

// regionTable is a RegionNamer over a fixed name list.
type regionTable []string

func (rt regionTable) RegionName(id RegionID) string {
	if id < 0 || int(id) >= len(rt) {
		return "?"
	}
	return rt[id]
}

// sameStats reports the first difference between two profiles, comparing
// floats bit for bit.
func sameStats(got, want *Stats) error {
	if math.Float64bits(got.TotalTime) != math.Float64bits(want.TotalTime) {
		return fmt.Errorf("TotalTime %v, want %v", got.TotalTime, want.TotalTime)
	}
	if len(got.PerLocation) != len(want.PerLocation) {
		return fmt.Errorf("%d locations, want %d", len(got.PerLocation), len(want.PerLocation))
	}
	for loc, w := range want.PerLocation {
		if g, ok := got.PerLocation[loc]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("span of %v is %v, want %v", loc, g, w)
		}
	}
	if len(got.Regions) != len(want.Regions) {
		return fmt.Errorf("%d regions, want %d", len(got.Regions), len(want.Regions))
	}
	for name, wl := range want.Regions {
		gl := got.Regions[name]
		if len(gl) != len(wl) {
			return fmt.Errorf("region %q at %d locations, want %d", name, len(gl), len(wl))
		}
		for loc, w := range wl {
			g := gl[loc]
			if g == nil || g.Region != w.Region || g.Loc != w.Loc || g.Count != w.Count ||
				math.Float64bits(g.Inclusive) != math.Float64bits(w.Inclusive) ||
				math.Float64bits(g.Exclusive) != math.Float64bits(w.Exclusive) {
				return fmt.Errorf("region %q at %v: %+v, want %+v", name, loc, g, w)
			}
		}
	}
	return nil
}

// randomStatsEvents draws an event sequence over a location pool mixing
// dense thread-0 ranks met in random order with threads, negative ranks
// and huge ranks, over more regions than a location caches (two ids share
// one name), with unmatched Exits and non-flow kinds in between.
func randomStatsEvents(rng *rand.Rand, n int) []Event {
	pool := []Location{{Rank: -1}, {Rank: -7, Thread: 2}, {Rank: 1 << 30}, {Rank: 1<<31 - 1},
		{Rank: 3, Thread: 1}, {Rank: 0, Thread: 5}, {Rank: 500}}
	for r := int32(0); r < int32(rng.Intn(200)); r++ {
		pool = append(pool, Location{Rank: r})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:1+rng.Intn(len(pool))]
	evs := make([]Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Loc = pool[rng.Intn(len(pool))]
		ev.Time = rng.Float64() * 100
		ev.Region = RegionID(rng.Intn(maxCachedRegions + 8))
		switch k := rng.Intn(10); {
		case k < 5:
			ev.Kind = KindEnter
		case k < 9:
			ev.Kind = KindExit
		default:
			ev.Kind = KindSend
		}
	}
	return evs
}

func statsRegionTable() regionTable {
	rt := make(regionTable, maxCachedRegions+8)
	for i := range rt {
		rt[i] = fmt.Sprintf("region%d", i)
	}
	rt[len(rt)-1] = rt[0]
	return rt
}

// TestStatsBuilderMatchesReference requires bit-identical Stats and
// per-region inclusive sums from StatsBuilder and the map-based reference
// on random event sequences.
func TestStatsBuilderMatchesReference(t *testing.T) {
	names := statsRegionTable()
	check := func(seed int64, size uint16) bool {
		evs := randomStatsEvents(rand.New(rand.NewSource(seed)), int(size%4000))
		sb, rb := NewStatsBuilderFor(names), newRefStatsBuilder(names)
		for i := range evs {
			sb.Add(&evs[i])
			rb.Add(&evs[i])
		}
		got, want := sb.Finish(), rb.Finish()
		if err := sameStats(got, want); err != nil {
			t.Logf("seed %d, %d events: %v", seed, len(evs), err)
			return false
		}
		// The reference sorts each region's own locations; the builder's
		// Stats walk their ordered locations.
		for name := range want.Regions {
			if g, w := got.RegionInclusive(name), want.RegionInclusive(name); math.Float64bits(g) != math.Float64bits(w) {
				t.Logf("seed %d: region %q inclusive %v, want %v", seed, name, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsBuilderDescendingRanks meets ranks from the highest down, so
// the first ones exceed the dense index's bound and live in the fallback
// map while later ones are dense; the profile must not notice.
func TestStatsBuilderDescendingRanks(t *testing.T) {
	names := regionTable{"main", "MPI_Send"}
	sb, rb := NewStatsBuilderFor(names), newRefStatsBuilder(names)
	for r := int32(1000); r >= 0; r-- {
		for _, ev := range []Event{
			{Time: float64(r), Kind: KindEnter, Loc: Location{Rank: r}, Region: 0},
			{Time: float64(r) + 0.5, Kind: KindEnter, Loc: Location{Rank: r}, Region: 1},
			{Time: float64(r) + 0.75, Kind: KindExit, Loc: Location{Rank: r}},
			{Time: float64(r) + 1, Kind: KindExit, Loc: Location{Rank: r}},
		} {
			sb.Add(&ev)
			rb.Add(&ev)
		}
	}
	if err := sameStats(sb.Finish(), rb.Finish()); err != nil {
		t.Fatal(err)
	}
	if len(sb.locIndex) == 0 || len(sb.rankSlot) == 0 {
		t.Fatalf("%d map entries, %d dense slots: both paths should be in use", len(sb.locIndex), len(sb.rankSlot))
	}
}

// TestStatsBuilderHugeRankBounded pins the dense index's bound: events
// at rank 2³⁰ and 2³¹−1 cost a few small allocations, not an index sized
// by the rank number (a hostile spool's cheapest attack on atsd).
func TestStatsBuilderHugeRankBounded(t *testing.T) {
	names := regionTable{"main"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sb := NewStatsBuilderFor(names)
	for i, r := range []int32{1 << 30, 1<<31 - 1, 1 << 30} {
		loc := Location{Rank: r}
		sb.Add(&Event{Time: float64(i), Kind: KindEnter, Loc: loc})
		sb.Add(&Event{Time: float64(i) + 1, Kind: KindExit, Loc: loc})
	}
	st := sb.Finish()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Fatalf("two huge-rank locations allocated %d bytes", d)
	}
	locs := make([]Location, 0, len(st.PerLocation))
	for loc := range st.PerLocation {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].less(locs[j]) })
	if len(locs) != 2 || st.RegionCount("main") != 3 {
		t.Fatalf("locations %v, %d main visits", locs, st.RegionCount("main"))
	}
}
