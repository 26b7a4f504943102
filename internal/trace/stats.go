package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// RegionStat aggregates time spent in one region at one location.
type RegionStat struct {
	Region    string
	Loc       Location
	Count     int
	Inclusive float64 // time between Enter and matching Exit, summed
	Exclusive float64 // Inclusive minus time in nested regions
}

// Stats summarizes a trace: per-location total times and per-region
// inclusive/exclusive profiles.  It is the flat-profile complement to the
// analyzer's pattern search and feeds severity normalization.
type Stats struct {
	// PerLocation maps each location to its span (first to last event).
	PerLocation map[Location]float64
	// TotalTime is the sum of all location spans: the aggregate resource
	// consumption severities are normalized against (ASL convention).
	TotalTime float64
	// Regions holds per-(region, location) aggregates.
	Regions map[string]map[Location]*RegionStat
	// locs are PerLocation's keys in rank-major order, the order the
	// per-region sums run in; nil unless StatsBuilder made the Stats.
	locs []Location
}

// ComputeStats scans the trace once and builds the profile.
func ComputeStats(t *Trace) *Stats {
	sb := NewStatsBuilder(t)
	for i := range t.Events {
		sb.Add(&t.Events[i])
	}
	return sb.Finish()
}

// StatsBuilder accumulates the flat profile event by event.  It exists so
// single-pass consumers (the analyzer fuses its pattern search, message
// statistics and the profile into one sweep) share the exact accumulation
// arithmetic of ComputeStats: same additions, same order, bit-identical
// floats — the regression store's content-addressed identity depends on
// that.
//
// Per-location state lives in dense slices.  A thread-0 location is found
// through rankSlot, a slice indexed by rank, with no hashing; other
// locations (threads, negative ranks, ranks far beyond the count seen so
// far) fall back to the locIndex map.  Each location also remembers the
// RegionStats it has completed, so an Exit for a pair seen before skips
// both region maps.
type StatsBuilder struct {
	names RegionNamer
	// rankSlot[r] is 1 + the perLoc index of Location{r, 0}, or 0.  It
	// grows only to maxDenseRank, so a hostile rank number cannot size it.
	rankSlot []int32
	locIndex map[Location]int32
	locs     []Location // insertion order of first appearance
	perLoc   []locState
	regions  map[string]map[Location]*RegionStat
	// statSlab holds the RegionStats regionStat hands out next, allocated
	// in blocks of doubling size (up to maxStatBlock): a run completes a
	// region pair per location and region.
	statSlab []RegionStat
	statNext int // size of the next block
}

// maxStatBlock bounds the RegionStat blocks.
const maxStatBlock = 256

type statsFrame struct {
	region string
	enter  float64
	child  float64 // accumulated nested time
}

// maxCachedRegions bounds locState.seen, so a location visiting many
// regions pays a map lookup instead of an ever longer scan.
const maxCachedRegions = 8

type locState struct {
	first, last float64
	stack       []statsFrame
	// seen[:nseen] are this location's first completed RegionStats, held
	// inline so a new location costs no allocation.
	seen  [maxCachedRegions]*RegionStat
	nseen int
}

// NewStatsBuilder returns a builder for events of t.
func NewStatsBuilder(t *Trace) *StatsBuilder { return NewStatsBuilderFor(t) }

// NewStatsBuilderFor returns a builder resolving region names through any
// RegionNamer — in particular a Stream, which lets the analyzer build the
// flat profile incrementally without a materialized trace.  The
// accumulation arithmetic is identical to NewStatsBuilder's.  A Trace or
// Stream namer sizes the per-location state for its locations.
func NewStatsBuilderFor(names RegionNamer) *StatsBuilder {
	var n int
	switch v := names.(type) {
	case *Trace:
		n = len(v.Locations)
	case *Stream:
		n = len(v.locs)
	}
	return &StatsBuilder{
		names:    names,
		locIndex: make(map[Location]int32),
		regions:  make(map[string]map[Location]*RegionStat),
		locs:     make([]Location, 0, n),
		perLoc:   make([]locState, 0, n),
	}
}

// maxDenseRank is the largest rank rankSlot may cover once n locations
// are known: twice the count seen plus slack keeps it O(locations) while
// ranks met roughly in order stay on the dense path.
func maxDenseRank(n int) int { return 2*n + 64 }

func (sb *StatsBuilder) locState(loc Location, time float64) *locState {
	if loc.Thread == 0 && loc.Rank >= 0 && int(loc.Rank) < len(sb.rankSlot) {
		if i := sb.rankSlot[loc.Rank]; i > 0 {
			return &sb.perLoc[i-1]
		}
	}
	if i, ok := sb.locIndex[loc]; ok {
		return &sb.perLoc[i]
	}
	i := int32(len(sb.perLoc))
	sb.locs = append(sb.locs, loc)
	sb.perLoc = append(sb.perLoc, locState{first: time, last: time})
	if r := int(loc.Rank); loc.Thread == 0 && r >= 0 && r <= maxDenseRank(len(sb.perLoc)) {
		if r >= len(sb.rankSlot) {
			sb.rankSlot = append(sb.rankSlot, make([]int32, r+1-len(sb.rankSlot))...)
		}
		sb.rankSlot[r] = i + 1
	} else {
		sb.locIndex[loc] = i
	}
	return &sb.perLoc[i]
}

// Add feeds one event, in trace order.
func (sb *StatsBuilder) Add(ev *Event) {
	ls := sb.locState(ev.Loc, ev.Time)
	ls.last = ev.Time
	switch ev.Kind {
	case KindEnter:
		ls.stack = append(ls.stack, statsFrame{
			region: sb.names.RegionName(ev.Region), enter: ev.Time,
		})
	case KindExit:
		if len(ls.stack) == 0 {
			return // tolerate truncated traces
		}
		f := ls.stack[len(ls.stack)-1]
		ls.stack = ls.stack[:len(ls.stack)-1]
		incl := ev.Time - f.enter
		excl := incl - f.child
		if len(ls.stack) > 0 {
			ls.stack[len(ls.stack)-1].child += incl
		}
		rs := ls.regionStat(f.region)
		if rs == nil {
			rs = sb.regionStat(f.region, ev.Loc)
			if ls.nseen < maxCachedRegions {
				ls.seen[ls.nseen] = rs
				ls.nseen++
			}
		}
		rs.Count++
		rs.Inclusive += incl
		rs.Exclusive += excl
	}
}

// regionStat returns the location's cached RegionStat for region, or nil.
func (ls *locState) regionStat(region string) *RegionStat {
	for _, rs := range ls.seen[:ls.nseen] {
		if rs.Region == region {
			return rs
		}
	}
	return nil
}

// regionStat returns the RegionStat of (region, loc), creating it.
func (sb *StatsBuilder) regionStat(region string, loc Location) *RegionStat {
	byLoc := sb.regions[region]
	if byLoc == nil {
		byLoc = make(map[Location]*RegionStat)
		sb.regions[region] = byLoc
	}
	rs := byLoc[loc]
	if rs == nil {
		if len(sb.statSlab) == 0 {
			sb.statNext = min(max(2*sb.statNext, 8), maxStatBlock)
			sb.statSlab = make([]RegionStat, sb.statNext)
		}
		rs = &sb.statSlab[0]
		sb.statSlab = sb.statSlab[1:]
		*rs = RegionStat{Region: region, Loc: loc}
		byLoc[loc] = rs
	}
	return rs
}

// Finish computes the per-location spans and returns the profile.
func (sb *StatsBuilder) Finish() *Stats {
	s := &Stats{
		PerLocation: make(map[Location]float64, len(sb.locs)),
		Regions:     sb.regions,
		locs:        make([]Location, len(sb.locs)),
	}
	// Sum spans in location order: TotalTime normalizes every severity,
	// so its float accumulation order must not depend on map iteration.
	order := make([]int32, len(sb.locs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return sb.locs[i].Compare(sb.locs[j]) })
	for k, i := range order {
		ls := &sb.perLoc[i]
		span := ls.last - ls.first
		s.PerLocation[sb.locs[i]] = span
		s.TotalTime += span
		s.locs[k] = sb.locs[i]
	}
	return s
}

// sortedLocs returns the keys of a per-location map in rank-major order.
func sortedLocs[V any](m map[Location]V) []Location {
	locs := make([]Location, 0, len(m))
	for loc := range m {
		locs = append(locs, loc)
	}
	slices.SortFunc(locs, Location.Compare)
	return locs
}

// RegionNames returns all region names present in the profile, sorted.
func (s *Stats) RegionNames() []string {
	names := make([]string, 0, len(s.Regions))
	for name := range s.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RegionInclusive sums the inclusive time of a region over all locations,
// in rank-major order.  Stats from StatsBuilder walk their own ordered
// locations instead of sorting the region's.
func (s *Stats) RegionInclusive(region string) float64 {
	byLoc := s.Regions[region]
	locs := s.locs
	if locs == nil {
		locs = sortedLocs(byLoc)
	}
	var tot float64
	for _, loc := range locs {
		if rs := byLoc[loc]; rs != nil {
			tot += rs.Inclusive
		}
	}
	return tot
}

// RegionCount sums the visit count of a region over all locations.
func (s *Stats) RegionCount(region string) int {
	var n int
	for _, rs := range s.Regions[region] {
		n += rs.Count
	}
	return n
}

// PathProfile aggregates inclusive time and visit counts per dynamic call
// path — the data behind an EXPERT-style call-tree pane.
type PathProfile struct {
	Inclusive map[PathID]float64
	Count     map[PathID]int
	Total     float64 // total resource time, for percentages
}

// ComputePathProfile scans the trace once and accumulates per-call-path
// inclusive times over all locations.
func ComputePathProfile(t *Trace) *PathProfile {
	pp := &PathProfile{
		Inclusive: make(map[PathID]float64),
		Count:     make(map[PathID]int),
	}
	type frame struct {
		path  PathID
		enter float64
	}
	stacks := make(map[Location][]frame)
	first := make(map[Location]float64)
	last := make(map[Location]float64)
	for _, ev := range t.Events {
		if _, ok := first[ev.Loc]; !ok {
			first[ev.Loc] = ev.Time
		}
		last[ev.Loc] = ev.Time
		switch ev.Kind {
		case KindEnter:
			stacks[ev.Loc] = append(stacks[ev.Loc], frame{path: ev.Path, enter: ev.Time})
		case KindExit:
			st := stacks[ev.Loc]
			if len(st) == 0 {
				continue
			}
			f := st[len(st)-1]
			stacks[ev.Loc] = st[:len(st)-1]
			pp.Inclusive[f.path] += ev.Time - f.enter
			pp.Count[f.path]++
		}
	}
	for _, loc := range sortedLocs(first) {
		pp.Total += last[loc] - first[loc]
	}
	return pp
}

// RenderTree renders the call-path profile as an indented tree, children
// sorted by inclusive time.
func (pp *PathProfile) RenderTree(t *Trace) string {
	children := make(map[PathID][]PathID)
	for p := range pp.Inclusive {
		node := p
		for node > PathRoot {
			parent := t.PathParent[node]
			found := false
			for _, c := range children[parent] {
				if c == node {
					found = true
					break
				}
			}
			if !found {
				children[parent] = append(children[parent], node)
			}
			node = parent
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "call tree (inclusive time over all locations; total %.6fs)\n", pp.Total)
	var walk func(p PathID, depth int)
	walk = func(p PathID, depth int) {
		kids := children[p]
		sort.Slice(kids, func(i, j int) bool {
			if pp.Inclusive[kids[i]] != pp.Inclusive[kids[j]] {
				return pp.Inclusive[kids[i]] > pp.Inclusive[kids[j]]
			}
			return kids[i] < kids[j]
		})
		for _, k := range kids {
			pct := 0.0
			if pp.Total > 0 {
				pct = pp.Inclusive[k] / pp.Total * 100
			}
			fmt.Fprintf(&b, "%s%-*s %10.6fs %6.2f%% %6d×\n",
				strings.Repeat("  ", depth),
				46-2*depth, t.RegionName(t.PathRegion[k]),
				pp.Inclusive[k], pct, pp.Count[k])
			walk(k, depth+1)
		}
	}
	walk(PathRoot, 0)
	return b.String()
}

// Profile renders a flat profile sorted by aggregate inclusive time —
// useful for eyeballing synthetic programs and in cmd/atstrace output.
func (s *Stats) Profile() string {
	type row struct {
		region string
		count  int
		incl   float64
		excl   float64
	}
	var rows []row
	for region, byLoc := range s.Regions {
		r := row{region: region}
		for _, rs := range byLoc {
			r.count += rs.Count
			r.incl += rs.Inclusive
			r.excl += rs.Exclusive
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].incl != rows[j].incl {
			return rows[i].incl > rows[j].incl
		}
		return rows[i].region < rows[j].region
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %8s %12s %12s\n", "region", "count", "incl(s)", "excl(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %8d %12.6f %12.6f\n", r.region, r.count, r.incl, r.excl)
	}
	return b.String()
}
