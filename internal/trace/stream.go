package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// RegionNamer resolves region ids to names.  Both the materialized Trace
// and the streaming Stream implement it; StatsBuilder only needs this
// slice of the trace API.
type RegionNamer interface {
	RegionName(RegionID) string
}

// View is the read-only name/path resolution interface shared by Trace and
// Stream.  The analyzer renders call paths through it, so the streamed and
// materialized paths produce identical strings.
type View interface {
	RegionNamer
	PathString(p PathID) string
}

var (
	_ View = (*Trace)(nil)
	_ View = (*Stream)(nil)
)

// streamSource is one location's frame sequence feeding a Stream: chunk
// cursors for spooled runs, buffer adapters for in-memory ones.
type streamSource interface {
	loc() Location
	// next returns the next batch of locally-interned events, or nil at
	// end of stream.  The slice is only valid until the following call.
	next() ([]Event, error)
	// tables exposes the source's local intern tables as of the last next
	// call; entries are append-only across frames.
	tables() (regions []string, pathParent []PathID, pathRegion []RegionID)
}

// bufferSource adapts an in-memory Buffer as a source whose batches are
// the blocks of its event slab.
type bufferSource struct {
	b     *Buffer
	block int // index of the next block; len(b.full) is the current one
}

func (s *bufferSource) loc() Location { return s.b.Loc }

func (s *bufferSource) next() ([]Event, error) {
	i := s.block
	s.block++
	switch {
	case i < len(s.b.full):
		return s.b.full[i], nil
	case i == len(s.b.full):
		return s.b.events, nil
	}
	return nil, nil
}

func (s *bufferSource) tables() ([]string, []PathID, []RegionID) {
	return s.b.regions, s.b.pathParent, s.b.pathRegion
}

// sourceState is the per-source merge state: the current remapped batch
// and the local→global id maps, grown as the local tables grow.
type sourceState struct {
	src       streamSource
	cur       []Event
	pos       int
	regionMap []RegionID
	pathMap   []PathID
}

// heapEntry is one source's merge key — its current event's time and
// location — kept inline so comparisons never chase a source's events.
type heapEntry struct {
	time float64
	loc  Location
	src  int
}

// less orders heap entries by (Time, Location, source index).
func (a *heapEntry) less(b *heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.loc != b.loc {
		return a.loc.less(b.loc)
	}
	return a.src < b.src
}

// Stream is the k-way merge over per-location event streams, delivering
// events in (Time, Location) order with within-location order preserved;
// Merge drains one into a Trace.  Region names and call paths are
// interned globally and incrementally, so a Stream implements View and the
// analyzer can consume it in place of a Trace while holding only
// O(locations + intern tables) memory of its own: per location one raw
// frame and at most a small batch of decoded events.  Over chunk spools,
// the readers' frame indexes add O(events / spill) (see ChunkReader).
type Stream struct {
	srcs []sourceState
	heap []heapEntry

	regions    []string
	regionIDs  map[string]RegionID
	pathParent []PathID
	pathRegion []RegionID
	pathChild  map[pathKey]PathID
	pathStrs   []string // rendered prefix of the path table (PathString)

	locs   []Location
	events int
	first  float64
	last   float64

	evBuf   Event
	err     error
	closers []io.Closer
}

// NewStream merges the streams of one or more chunk spools.  The readers'
// locations must be pairwise distinct.  Closing the stream closes the
// readers.
func NewStream(readers ...*ChunkReader) (*Stream, error) {
	var srcs []streamSource
	var closers []io.Closer
	for _, r := range readers {
		for _, c := range r.cursors() {
			srcs = append(srcs, c)
		}
		closers = append(closers, r)
	}
	return newStream(srcs, closers)
}

// NewBufferStream merges in-memory buffers (Merge drains one).  Their
// event slabs are remapped to global ids in place; the buffers must not be
// recorded into or released while the stream is live.
func NewBufferStream(buffers ...*Buffer) (*Stream, error) {
	adapters := make([]bufferSource, 0, len(buffers))
	srcs := make([]streamSource, 0, len(buffers))
	for _, b := range buffers {
		if b == nil {
			continue
		}
		adapters = append(adapters, bufferSource{b: b})
		srcs = append(srcs, &adapters[len(adapters)-1])
	}
	return newStream(srcs, nil)
}

func newStream(sources []streamSource, closers []io.Closer) (*Stream, error) {
	// Sources are ordered by location, making the merge independent of
	// argument order (locations are unique per source, so the heap's
	// source-index tiebreak is never reached across sources).
	sort.Slice(sources, func(i, j int) bool { return sources[i].loc().less(sources[j].loc()) })
	st := &Stream{
		regionIDs:  make(map[string]RegionID),
		pathParent: []PathID{-1},
		pathRegion: []RegionID{-1},
		pathStrs:   []string{""},
		pathChild:  make(map[pathKey]PathID),
		locs:       make([]Location, 0, len(sources)),
		srcs:       make([]sourceState, 0, len(sources)),
		heap:       make([]heapEntry, 0, len(sources)),
		closers:    closers,
	}
	for i, src := range sources {
		if i > 0 && !sources[i-1].loc().less(src.loc()) {
			st.Close()
			return nil, fmt.Errorf("trace: stream: duplicate location %v", src.loc())
		}
		st.locs = append(st.locs, src.loc())
		st.srcs = append(st.srcs, sourceState{src: src})
	}
	for i := range st.srcs {
		if err := st.refill(i); err != nil {
			st.Close()
			return nil, err
		}
		if s := &st.srcs[i]; s.cur != nil {
			ev := &s.cur[0]
			st.heap = append(st.heap, heapEntry{time: ev.Time, loc: ev.Loc, src: i})
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
	return st, nil
}

// intern maps a region name to its global id.
func (st *Stream) intern(name string) RegionID {
	if id, ok := st.regionIDs[name]; ok {
		return id
	}
	id := RegionID(len(st.regions))
	st.regions = append(st.regions, name)
	st.regionIDs[name] = id
	return id
}

// child returns (creating if needed) the global path node for region under
// parent.
func (st *Stream) child(parent PathID, region RegionID) PathID {
	k := pathKey{parent, region}
	if id, ok := st.pathChild[k]; ok {
		return id
	}
	id := PathID(len(st.pathParent))
	st.pathParent = append(st.pathParent, parent)
	st.pathRegion = append(st.pathRegion, region)
	st.pathChild[k] = id
	return id
}

// refill loads source i's next non-empty batch, extends its id maps from
// the grown local tables, and remaps the batch's events to global ids in
// place.  cur is nil once the source is exhausted.
func (st *Stream) refill(i int) error {
	s := &st.srcs[i]
	for {
		evs, err := s.src.next()
		if err != nil {
			return err
		}
		if evs == nil {
			s.cur, s.pos = nil, 0
			return nil
		}
		regions, pathParent, pathRegion := s.src.tables()
		s.regionMap = slices.Grow(s.regionMap, len(regions)-len(s.regionMap))
		s.pathMap = slices.Grow(s.pathMap, len(pathParent)-len(s.pathMap))
		for j := len(s.regionMap); j < len(regions); j++ {
			s.regionMap = append(s.regionMap, st.intern(regions[j]))
		}
		for j := len(s.pathMap); j < len(pathParent); j++ {
			if j == 0 {
				s.pathMap = append(s.pathMap, PathRoot)
				continue
			}
			// Parents precede children in the local table, so the
			// parent's global id is already mapped.
			s.pathMap = append(s.pathMap, st.child(s.pathMap[pathParent[j]], s.regionMap[pathRegion[j]]))
		}
		if len(evs) == 0 {
			continue
		}
		for j := range evs {
			ev := &evs[j]
			if ev.Kind == KindEnter || ev.Kind == KindExit {
				ev.Region = s.regionMap[ev.Region]
			}
			ev.Path = s.pathMap[ev.Path]
		}
		s.cur, s.pos = evs, 0
		return nil
	}
}

// siftDown restores the heap below i, moving the displaced entry down
// into the hole its smaller children leave.
func (st *Stream) siftDown(i int) {
	h := st.heap
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Next returns the next event in merged order, or (nil, nil) at end of
// stream.  The returned pointer is only valid until the following call.
// Errors are sticky.
func (st *Stream) Next() (*Event, error) {
	if st.err != nil {
		return nil, st.err
	}
	if len(st.heap) == 0 {
		return nil, nil
	}
	top := &st.heap[0]
	s := &st.srcs[top.src]
	// Copy before refilling: the source reuses its frame storage.
	st.evBuf = s.cur[s.pos]
	s.pos++
	if s.pos == len(s.cur) {
		if err := st.refill(top.src); err != nil {
			st.err = err
			return nil, err
		}
	}
	if s.cur != nil {
		ev := &s.cur[s.pos]
		top.time, top.loc = ev.Time, ev.Loc
	} else {
		*top = st.heap[len(st.heap)-1]
		st.heap = st.heap[:len(st.heap)-1]
	}
	if len(st.heap) > 0 {
		st.siftDown(0)
	}
	if st.events == 0 {
		st.first = st.evBuf.Time
	}
	st.last = st.evBuf.Time
	st.events++
	return &st.evBuf, nil
}

// drain collects the stream's remaining events into a Trace that adopts
// the stream's intern tables and locations; n presizes the event slab.
func (st *Stream) drain(n int) (*Trace, error) {
	events := make([]Event, 0, n)
	for {
		ev, err := st.Next()
		if err != nil {
			return nil, err
		}
		if ev == nil {
			break
		}
		events = append(events, *ev)
	}
	return &Trace{
		Events:     events,
		Regions:    st.regions,
		PathParent: st.pathParent,
		PathRegion: st.pathRegion,
		Locations:  st.locs,
	}, nil
}

// RegionName implements View over the global intern table.
func (st *Stream) RegionName(id RegionID) string {
	if id < 0 || int(id) >= len(st.regions) {
		return "?"
	}
	return st.regions[id]
}

// PathString implements View; rendered forms match Trace.PathString.
// Paths are rendered on first request, not as the stream meets them: a
// path's string grows with its depth, so rendering every path of a deep
// call tree costs the square of its depth, which a stream that is only
// drained must not pay.  Parents precede children in the path table, so
// each path renders as its parent's string plus one segment.
func (st *Stream) PathString(p PathID) string {
	if p <= PathRoot || int(p) >= len(st.pathParent) {
		return ""
	}
	for i := len(st.pathStrs); i <= int(p); i++ {
		leaf := st.regions[st.pathRegion[i]]
		if parent := st.pathParent[i]; parent > PathRoot {
			st.pathStrs = append(st.pathStrs, st.pathStrs[parent]+"/"+leaf)
		} else {
			st.pathStrs = append(st.pathStrs, leaf)
		}
	}
	return st.pathStrs[p]
}

// Locations returns the stream's locations in rank-major order (the same
// set Merge records in Trace.Locations).
func (st *Stream) Locations() []Location { return st.locs }

// Shape mirrors Trace.Shape: distinct ranks and the maximum thread count.
func (st *Stream) Shape() (ranks, threads int) {
	seen := make(map[int32]bool)
	for _, loc := range st.locs {
		if !seen[loc.Rank] {
			seen[loc.Rank] = true
			ranks++
		}
		if n := int(loc.Thread) + 1; n > threads {
			threads = n
		}
	}
	return ranks, threads
}

// Events returns the number of events delivered so far (after the stream
// is drained: the total event count, mirroring len(Trace.Events)).
func (st *Stream) Events() int { return st.events }

// Duration returns the time span between the first and last delivered
// event, mirroring Trace.Duration once the stream is drained.
func (st *Stream) Duration() float64 {
	if st.events == 0 {
		return 0
	}
	return st.last - st.first
}

// Close releases the underlying readers.
func (st *Stream) Close() error {
	var first error
	for _, c := range st.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.closers = nil
	return first
}
