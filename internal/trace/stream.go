package trace

import (
	"fmt"
	"slices"
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

// sourceState is the per-location merge state: the location's chunk
// cursor and the local→global id maps, grown as the cursor's tables grow.
type sourceState struct {
	src       *chunkCursor
	regionMap []RegionID
	pathMap   []PathID
}

// heapEntry is one source's heap key, kept inline so comparisons never
// chase a source: its next event's time while Next merges, and the file
// offset of its next frame once ForEach reads in spool order (exact, as
// offsets stay below 2^53).  Sources are indexed in location order and
// each holds one location, so the source index breaks ties as the
// location does.
type heapEntry struct {
	key float64
	src int
}

// less orders heap entries by (key, Location).
func (a *heapEntry) less(b *heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.src < b.src
}

// Stream reads the per-location streams of chunk spools back as one
// event stream, in either of two orders.  Next is the k-way merge: it
// delivers events in (Time, Location) order with within-location order
// preserved, and every Trace is one drained (Recorder.Trace, Merge, Read,
// ReadFile).  ForEach delivers them in spool order: whole frames in
// ascending file offset, so each location's events keep their order and
// locations interleave as their frames lie in the spool; an analysis that
// only matches events across locations needs no more.  Region names and
// call paths are interned globally and incrementally, as the stream meets
// each location's frames, so a Stream implements View and the analyzer
// can consume it in place of a Trace while holding only O(locations +
// intern tables) memory of its own: per location its read position and a
// heap key.  NewStream reads no frame: the first call of Next reads each
// location's first frame into a buffer of its own, and Next keeps one
// raw frame per location throughout, while ForEach reads every frame
// into one shared buffer.  An event is decoded, remapped to global ids
// and validated only when it is delivered, so on a corrupt spool a bad
// event is reported when it would be delivered, after every event that
// precedes it in the stream's order.
// Until the stream is drained the readers' frame indexes add O(events /
// spill) (see ChunkReader), and ForEach the batches it has in flight when
// it reads on a second goroutine (~1 MiB).  Once the last event is
// delivered the stream drops its sources (cursors, raw frames, id maps)
// and its readers' frame indexes; the intern tables, locations and
// counters stay.
type Stream struct {
	srcs []sourceState
	heap []heapEntry
	// order is how the heap is keyed, set by the first Next or ForEach;
	// frame is the raw frame buffer ForEach reads into.
	order streamOrder
	frame []byte

	tab       tables // the stream's intern tables
	regionIDs map[string]RegionID
	pathChild map[pathKey]PathID
	// view is what RegionName and PathString resolve through: &tab, or
	// &seen while ForEach reads on a second goroutine.
	view     *tables
	seen     tables
	pathStrs []string // rendered prefix of the path table (PathString)

	locs       []Location
	total      int // events the readers' indexes record
	events     int
	minT, maxT float64 // the earliest and latest delivered event's time

	evBuf   [1]Event
	err     error
	readers []*ChunkReader
}

// streamOrder is the key of a stream's heap.
type streamOrder uint8

const (
	unkeyed  streamOrder = iota // no source in the heap yet
	byTime                      // next event time (Next)
	byOffset                    // next frame's file offset (ForEach)
)

// tables are the global intern tables' slice headers.  The stream only
// appends to them, so a copy taken after some event keeps resolving every
// id interned up to that event while the stream reads on.
type tables struct {
	regions    []string
	pathParent []PathID
	pathRegion []RegionID
}

// NewStream opens one event stream over the per-location streams of one
// or more chunk spools.  It reads no frame: a corrupt frame is reported
// by the Next or ForEach that reaches it.  The readers' locations must be
// pairwise distinct.  Closing the stream closes the readers.
func NewStream(readers ...*ChunkReader) (*Stream, error) {
	var cursors []*chunkCursor
	total := 0
	for _, r := range readers {
		cs, err := r.cursors()
		if err != nil {
			for _, r := range readers {
				r.Close()
			}
			return nil, err
		}
		cursors = append(cursors, cs...)
		total += r.Events()
	}
	// Cursors are ordered by location, making the merge independent of
	// reader order (locations are unique per cursor, so the heap's
	// source-index tiebreak is never reached across cursors).
	slices.SortFunc(cursors, func(a, b *chunkCursor) int { return a.loc().Compare(b.loc()) })
	st := &Stream{
		tab:       tables{pathParent: []PathID{-1}, pathRegion: []RegionID{-1}},
		regionIDs: make(map[string]RegionID),
		pathStrs:  []string{""},
		pathChild: make(map[pathKey]PathID),
		locs:      make([]Location, 0, len(cursors)),
		total:     total,
		srcs:      make([]sourceState, 0, len(cursors)),
		heap:      make([]heapEntry, 0, len(cursors)),
		readers:   slices.Clone(readers),
	}
	st.view = &st.tab
	// The id maps are carved from slabs, as the cursors' tables are.
	regionMaps := make([]RegionID, len(cursors)*cursorTables)
	pathMaps := make([]PathID, len(cursors)*cursorTables)
	for i, c := range cursors {
		if i > 0 && !cursors[i-1].loc().less(c.loc()) {
			st.Close()
			return nil, fmt.Errorf("trace: stream: duplicate location %v", c.loc())
		}
		lo, hi := i*cursorTables, (i+1)*cursorTables
		st.locs = append(st.locs, c.loc())
		st.srcs = append(st.srcs, sourceState{src: c, regionMap: regionMaps[lo:lo:hi], pathMap: pathMaps[lo:lo:hi]})
	}
	return st, nil
}

// keyByTime primes the merge: it reads each source's first frame that
// holds an event and keys the heap by that event's time.
func (st *Stream) keyByTime() error {
	st.order = byTime
	for i := range st.srcs {
		t, ok, err := st.advance(i)
		if err != nil {
			return err
		}
		if ok {
			st.heap = append(st.heap, heapEntry{key: t, src: i})
		}
	}
	st.heapify()
	st.dropSourcesIfDrained()
	return nil
}

// intern maps a region name to its global id.
func (st *Stream) intern(name string) RegionID {
	if id, ok := st.regionIDs[name]; ok {
		return id
	}
	id := RegionID(len(st.tab.regions))
	st.tab.regions = append(st.tab.regions, name)
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
	id := PathID(len(st.tab.pathParent))
	st.tab.pathParent = append(st.tab.pathParent, parent)
	st.tab.pathRegion = append(st.tab.pathRegion, region)
	st.pathChild[k] = id
	return id
}

// advance positions source i at its next event, extends its id maps from
// the local tables the frames it read have grown, and returns the event's
// time; ok is false once the source is exhausted.
func (st *Stream) advance(i int) (t float64, ok bool, err error) {
	if t, ok, err = st.srcs[i].src.ready(); err != nil {
		return 0, false, err
	}
	st.remap(i)
	return t, ok, nil
}

// remap extends source i's id maps over the local table entries its
// cursor's frames have added since the last call.
func (st *Stream) remap(i int) {
	s := &st.srcs[i]
	regions, pathParent, pathRegion := s.src.regions, s.src.pathParent, s.src.pathRegion
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
		// Parents precede children in the local table, so the parent's
		// global id is already mapped.
		s.pathMap = append(s.pathMap, st.child(s.pathMap[pathParent[j]], s.regionMap[pathRegion[j]]))
	}
}

// decode decodes source s's next event into dst and maps its ids to the
// global tables.
func (st *Stream) decode(s *sourceState, dst *Event) error {
	if err := s.src.pop(dst); err != nil {
		return err
	}
	if dst.Kind == KindEnter || dst.Kind == KindExit {
		dst.Region = s.regionMap[dst.Region]
	}
	dst.Path = s.pathMap[dst.Path]
	return nil
}

// count records the delivery of an event at time t.
func (st *Stream) count(t float64) {
	if st.events == 0 {
		st.minT, st.maxT = t, t
	} else if t < st.minT {
		st.minT = t
	} else if t > st.maxT {
		st.maxT = t
	}
	st.events++
}

// dropSourcesIfDrained releases the stream's sources once every event is
// delivered: the cursors with their raw frames and tables, the id maps,
// the global intern maps, and the readers' frame indexes and name maps.
// What resolves ids (the intern tables) and what describes the stream
// (locations, counters) stay.
func (st *Stream) dropSourcesIfDrained() {
	if len(st.heap) == 0 {
		st.srcs, st.heap, st.frame = nil, nil, nil
		st.regionIDs, st.pathChild = nil, nil
		for _, r := range st.readers {
			r.release()
		}
	}
}

// heapify orders the whole heap.
func (st *Stream) heapify() {
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.siftDown(i)
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
	if ok, err := st.next(&st.evBuf[0]); !ok {
		return nil, err
	}
	return &st.evBuf[0], nil
}

// next merges the next event into dst and reports whether there was one.
func (st *Stream) next(dst *Event) (bool, error) {
	if st.err != nil {
		return false, st.err
	}
	if st.order == unkeyed {
		if err := st.keyByTime(); err != nil {
			st.err = err
			return false, err
		}
	}
	if len(st.heap) == 0 {
		return false, nil
	}
	top := &st.heap[0]
	if err := st.decode(&st.srcs[top.src], dst); err != nil {
		st.err = err
		return false, err
	}
	t, ok, err := st.advance(top.src)
	if err != nil {
		st.err = err
		return false, err
	}
	if ok {
		top.key = t
	} else {
		*top = st.heap[len(st.heap)-1]
		st.heap = st.heap[:len(st.heap)-1]
	}
	if len(st.heap) > 0 {
		st.siftDown(0)
	} else {
		st.dropSourcesIfDrained()
	}
	st.count(dst.Time)
	return true, nil
}

// keyByOffset keys the heap by frame offset.  An unkeyed stream enters
// each source at its first frame, which step reads when the source is on
// top, and checks that a source without frames records no events.  A
// stream Next has keyed is re-keyed from next event times: every source
// in the heap holds the frame its next event lies in, the last frame its
// cursor read.
func (st *Stream) keyByOffset() error {
	switch st.order {
	case byOffset:
		return nil
	case byTime:
		for i := range st.heap {
			c := st.srcs[st.heap[i].src].src
			st.heap[i].key = float64(c.ent.frames[c.fi-1].off)
		}
	case unkeyed:
		for i := range st.srcs {
			c := st.srcs[i].src
			if len(c.ent.frames) == 0 {
				if _, err := c.exhausted(); err != nil {
					return err
				}
				continue
			}
			st.heap = append(st.heap, heapEntry{key: float64(c.ent.frames[0].off), src: i})
		}
	}
	st.order = byOffset
	st.heapify()
	st.dropSourcesIfDrained()
	return nil
}

// fill reads events into dst in spool order until it is full or the
// stream ends, and returns how many it read.  The heap's top source is
// the one whose frame lies first in the spool: fill delivers that frame's
// events, then keys the source at its next frame, which it reads only
// when the source is on top again.
func (st *Stream) fill(dst []Event) (int, error) {
	if st.err != nil {
		return 0, st.err
	}
	n := 0
	for n < len(dst) && len(st.heap) > 0 {
		s := &st.srcs[st.heap[0].src]
		if s.src.left == 0 {
			if err := st.step(); err != nil {
				st.err = err
				return n, err
			}
			continue
		}
		for ; n < len(dst) && s.src.left > 0; n++ {
			if err := st.decode(s, &dst[n]); err != nil {
				st.err = err
				return n, err
			}
			st.count(dst[n].Time)
		}
	}
	return n, nil
}

// step advances the heap's top source, which has no event left to
// deliver from a frame: if it holds no frame it reads the one its key
// names into the stream's frame buffer; otherwise it checks and releases
// the delivered frame and keys the source at its next frame, or removes
// it once its frames are exhausted.
func (st *Stream) step() error {
	top := &st.heap[0]
	c := st.srcs[top.src].src
	if c.buf == nil {
		err := c.readFrame(st.frame)
		st.frame = c.buf
		if err == nil {
			st.remap(top.src)
		}
		return err
	}
	if err := c.frameDone(); err != nil {
		return err
	}
	// The largest frame buffer released so far serves every later read,
	// whether Next primed it or an earlier read grew it.
	if cap(c.buf) > cap(st.frame) {
		st.frame = c.buf
	}
	c.buf, c.off = nil, 0
	if done, err := c.exhausted(); err != nil {
		return err
	} else if done {
		*top = st.heap[len(st.heap)-1]
		st.heap = st.heap[:len(st.heap)-1]
	} else {
		top.key = float64(c.ent.frames[c.fi].off)
	}
	if len(st.heap) > 0 {
		st.siftDown(0)
	} else {
		st.dropSourcesIfDrained()
	}
	return nil
}

// pipelineBatch is the number of events the reading goroutine of ForEach
// hands over at a time, and the most events a stream may have left for
// ForEach to drain it on the caller's goroutine alone.  Much smaller
// batches lose to their hand-overs: at 256 events a 16384-rank world
// analyzed ~30% slower.
const pipelineBatch = 4096

// pipelineDepth is the number of batches in flight: one being filled,
// one waiting, one being consumed.
const pipelineDepth = 3

// eventBatch is a run of events in spool order with the intern tables as
// of its last event, which resolve every id the run references.
type eventBatch struct {
	events []Event
	tab    tables
	err    error // the stream's error after the batch's events
}

// ForEach calls fn with each of the stream's remaining events, in spool
// order (see Stream), on the caller's goroutine; the event is only valid
// during the call.  It returns the stream's error, if any: ForEach
// rejects a spool exactly when Next does, though on a spool with several
// faults the two may report different ones first.
//
// A stream with more than pipelineBatch events left is read on a second
// goroutine, which hands batches of up to pipelineBatch events to the
// caller's: pipelineDepth batches, ~1 MiB, carved from one slab no larger
// than the events the index records.  While it runs, the stream's
// RegionName and PathString resolve through the tables of the batch
// being consumed, so fn may call them; no other method of the stream may
// be called until ForEach returns, by which time the reading goroutine
// has exited.
func (st *Stream) ForEach(fn func(*Event)) error {
	if st.err == nil {
		st.err = st.keyByOffset()
	}
	if st.err != nil {
		return st.err
	}
	left := st.total - st.events
	if left <= pipelineBatch {
		for {
			if n, err := st.fill(st.evBuf[:]); n == 0 {
				return err
			}
			fn(&st.evBuf[0])
		}
	}
	batches := new([pipelineDepth]eventBatch)
	slab := make([]Event, min(left, pipelineDepth*pipelineBatch))
	// free has room for every batch, so handing one back never blocks.
	free := make(chan *eventBatch, pipelineDepth)
	for i := range batches {
		lo, hi := min(i*pipelineBatch, len(slab)), min((i+1)*pipelineBatch, len(slab))
		if lo < hi {
			batches[i].events = slab[lo:hi:hi]
			free <- &batches[i]
		}
	}
	full := make(chan *eventBatch, 1)
	st.view = &st.seen
	go st.produce(full, free)
	defer func() {
		close(free)
		for range full {
		}
		st.view = &st.tab
	}()
	for b := range full {
		st.seen = b.tab
		for i := range b.events {
			fn(&b.events[i])
		}
		if b.err != nil {
			return b.err
		}
		free <- b
	}
	return nil
}

// produce is ForEach's reading goroutine: it fills the batches it takes
// from free and sends them on full, which it closes on return.  It stops
// at the end of the stream, after a batch that carries an error, or once
// free is closed.
func (st *Stream) produce(full chan<- *eventBatch, free <-chan *eventBatch) {
	defer close(full)
	for b := range free {
		n, err := st.fill(b.events[:cap(b.events)])
		if n == 0 && err == nil {
			return
		}
		b.events, b.tab, b.err = b.events[:n], st.tab, err
		full <- b
		if err != nil || n < cap(b.events) {
			return
		}
	}
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
		Regions:    st.tab.regions,
		PathParent: st.tab.pathParent,
		PathRegion: st.tab.pathRegion,
		Locations:  st.locs,
	}, nil
}

// RegionName implements View over the global intern table.
func (st *Stream) RegionName(id RegionID) string {
	regions := st.view.regions
	if id < 0 || int(id) >= len(regions) {
		return "?"
	}
	return regions[id]
}

// PathString implements View; rendered forms match Trace.PathString.
// Paths are rendered on first request, not as the stream meets them: a
// path's string grows with its depth, so rendering every path of a deep
// call tree costs the square of its depth, which a stream that is only
// drained must not pay.  Parents precede children in the path table, so
// each path renders as its parent's string plus one segment.
func (st *Stream) PathString(p PathID) string {
	t := st.view
	if p <= PathRoot || int(p) >= len(t.pathParent) {
		return ""
	}
	for i := len(st.pathStrs); i <= int(p); i++ {
		leaf := t.regions[t.pathRegion[i]]
		if parent := t.pathParent[i]; parent > PathRoot {
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

// Duration returns the time span between the earliest and the latest
// delivered event.  Once the stream is drained it equals Trace.Duration
// of the merged trace whenever no location's event times decrease, as in
// every spool a run writes.
func (st *Stream) Duration() float64 {
	if st.events == 0 {
		return 0
	}
	return st.maxT - st.minT
}

// Close releases the underlying readers.
func (st *Stream) Close() error {
	var first error
	for _, r := range st.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.readers = nil
	return first
}
