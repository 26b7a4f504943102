// Package trace implements the ATS event-trace layer.
//
// The original ATS validates analysis tools (EXPERT, Vampir, …) against
// traces produced by instrumented runs of the synthetic test programs.
// This reproduction needs the tool side as well, so the runtime records
// event traces directly: region enter/exit, point-to-point message events,
// collective-operation events, and thread fork/join.  Each execution
// location (MPI rank × OpenMP thread) writes to its own Buffer without
// locking.  A Recorder hands the buffers out and merges them into a Trace
// at the end of the run — or, when it has a ChunkWriter, spills them to an
// on-disk chunk spool during the run, to be re-merged incrementally by a
// Stream, so analysis memory stays bounded at large rank counts.
//
// Call paths are interned as a tree so that every event carries the full
// dynamic call path at constant cost — the analyzer's "call graph pane"
// (paper Fig 3.5) is reconstructed from these path ids.
//
// One binary encoding exists, the ATSC chunk spool: a streaming run
// writes it through a ChunkWriter, Trace.Write spools a merged trace into
// it, and Read and NewStream merge it back.  doc/FORMATS.md is the
// normative spec.
package trace

import (
	"cmp"
	"fmt"
	"sync"
)

// Location identifies an execution location: an MPI process rank and an
// OpenMP thread within it.  Pure MPI programs use Thread 0; pure OpenMP
// programs use Rank 0.
type Location struct {
	Rank   int32
	Thread int32
}

// String renders the location as "rank.thread".
func (l Location) String() string { return fmt.Sprintf("%d.%d", l.Rank, l.Thread) }

// less orders locations rank-major.
func (l Location) less(o Location) bool {
	if l.Rank != o.Rank {
		return l.Rank < o.Rank
	}
	return l.Thread < o.Thread
}

// compareLocations orders locations rank-major, as less does, for
// slices.SortFunc.
func compareLocations(a, b Location) int {
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	return cmp.Compare(a.Thread, b.Thread)
}

// Kind enumerates event kinds.
type Kind uint8

const (
	// KindEnter marks entry into a region (function, construct).
	KindEnter Kind = iota
	// KindExit marks exit from the current region.
	KindExit
	// KindSend records a point-to-point message send.  Time is the
	// moment the sending operation was entered.
	KindSend
	// KindRecv records the completion of a point-to-point receive.
	// Time is completion; Aux is the time the receive was entered.
	KindRecv
	// KindColl records participation in a collective operation.  Time is
	// completion; Aux is the participant's enter time.
	KindColl
	// KindFork records an OpenMP parallel-region fork on the master.
	KindFork
	// KindJoin records the corresponding join; Aux is the fork time.
	KindJoin
	// KindLock records acquisition of a lock or critical section; Aux is
	// the waiting time incurred before acquisition.
	KindLock
	// KindMarker is a free-form marker event (used by tests and apps).
	KindMarker
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEnter:
		return "enter"
	case KindExit:
		return "exit"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindColl:
		return "coll"
	case KindFork:
		return "fork"
	case KindJoin:
		return "join"
	case KindLock:
		return "lock"
	case KindMarker:
		return "marker"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// CollKind enumerates collective operations for KindColl events.
type CollKind uint8

const (
	CollNone CollKind = iota
	CollBarrier
	CollBcast
	CollScatter
	CollScatterv
	CollGather
	CollGatherv
	CollReduce
	CollAllreduce
	CollAllgather
	CollAllgatherv
	CollAlltoall
	CollAlltoallv
	CollScan
	CollReduceScatter
	// OMP pseudo-collectives: team-wide synchronization points.
	CollOMPBarrier
	CollOMPForEnd  // implicit barrier at end of a worksharing loop
	CollOMPJoin    // implicit barrier at parallel-region join
	CollOMPSingle  // implicit barrier at end of single
	CollOMPSection // implicit barrier at end of sections
)

var collNames = map[CollKind]string{
	CollNone:          "none",
	CollBarrier:       "MPI_Barrier",
	CollBcast:         "MPI_Bcast",
	CollScatter:       "MPI_Scatter",
	CollScatterv:      "MPI_Scatterv",
	CollGather:        "MPI_Gather",
	CollGatherv:       "MPI_Gatherv",
	CollReduce:        "MPI_Reduce",
	CollAllreduce:     "MPI_Allreduce",
	CollAllgather:     "MPI_Allgather",
	CollAllgatherv:    "MPI_Allgatherv",
	CollAlltoall:      "MPI_Alltoall",
	CollAlltoallv:     "MPI_Alltoallv",
	CollScan:          "MPI_Scan",
	CollReduceScatter: "MPI_Reduce_scatter",
	CollOMPBarrier:    "omp barrier",
	CollOMPForEnd:     "omp for (implicit barrier)",
	CollOMPJoin:       "omp parallel (join)",
	CollOMPSingle:     "omp single (implicit barrier)",
	CollOMPSection:    "omp sections (implicit barrier)",
}

// String names the collective kind.
func (c CollKind) String() string {
	if s, ok := collNames[c]; ok {
		return s
	}
	return fmt.Sprintf("coll(%d)", uint8(c))
}

// Event flags.
const (
	// FlagSync marks a synchronous (rendezvous) point-to-point transfer.
	FlagSync uint8 = 1 << iota
	// FlagNonBlocking marks a non-blocking operation (Isend/Irecv).
	FlagNonBlocking
	// FlagRoot marks the root participant of a rooted collective.
	FlagRoot
)

// RegionID indexes the region name table of a Buffer or Trace.
type RegionID int32

// PathID indexes the call-path tree.  PathRoot is the empty path.
type PathID int32

// PathRoot is the id of the empty call path.
const PathRoot PathID = 0

// Event is one trace record.  The meaning of the payload fields depends on
// Kind; unused fields are zero.
type Event struct {
	Time float64  // event timestamp (seconds since run epoch)
	Aux  float64  // secondary timestamp or duration (see Kind docs)
	Kind Kind     //
	Loc  Location // where the event happened

	Region RegionID // Enter/Exit: region; Coll: unused
	Path   PathID   // call path at event time (after Enter / before Exit)

	// Point-to-point payload.
	Peer  int32  // comm-local peer rank (dest for Send, source for Recv)
	CRank int32  // own comm-local rank at the event
	Tag   int32  // message tag
	Bytes int64  // payload size in bytes
	Match uint64 // match id linking Send↔Recv, or collective instance id

	// Collective payload.
	Coll  CollKind
	Root  int32 // comm-local root rank (rooted collectives), else -1
	Comm  int32 // communicator context id (MPI) or team id (OMP)
	Flags uint8
}

// Buffer collects the events of a single location.  It is owned by exactly
// one goroutine and performs no locking.  Region names and call paths are
// interned locally and remapped during merge.
type Buffer struct {
	Loc Location
	// events is the block of the event slab being filled; full holds the
	// earlier, full blocks in order (nfull events).  A full block is never
	// copied: growth adds a block twice the size of the last (see slot),
	// so recording N events allocates about N slots once instead of
	// re-copying a doubling slab.
	events []Event
	full   [][]Event
	nfull  int

	regionIDs map[string]RegionID
	regions   []string

	// Call-path tree: node i has parent pathParent[i] and leaf region
	// pathRegion[i].  Node 0 is the root (empty path).
	pathParent []PathID
	pathRegion []RegionID
	pathChild  map[pathKey]PathID

	stack  []PathID // current path stack; top is current path
	cur    PathID
	seeded int // frames installed by Seed (not matched by Exit)

	// Streaming mode: when sink is non-nil the buffer keeps no event slab.
	// frame holds its pending events as they will be spooled, in
	// appendEvent's encoding (pending counts them), and is spilled as a
	// chunk frame whenever pending reaches spillAt, so the buffer holds at
	// most spillAt pending events however long the run is; the sink's
	// frame index still grows by one 16-byte ref per spilled frame.  The
	// intern tables are never spilled away — paths and regions keep their
	// local ids across frames and the sink writes table deltas per frame.
	// Set via ChunkWriter.Attach (Recorder.Buffer attaches).
	sink    *ChunkWriter
	spillAt int
	frame   []byte
	pending int
	encoded int // events moved into frames since NewBuffer
}

type pathKey struct {
	parent PathID
	region RegionID
}

// bufferPool recycles Buffer objects — including their materialized event
// slabs, intern maps and path tables — between runs.  Campaigns execute
// hundreds of worlds back to back; without the pool every run re-grows
// every rank's event slab from scratch and the allocator dominates the
// profile.  A streamed buffer's frame bytes go back to its ChunkWriter
// instead (see ChunkWriter.Finish).
var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// NewBuffer returns an empty buffer for the given location.  Buffers are
// drawn from a process-wide free list; pass them to Release when the
// merged trace no longer references them to recycle their storage.
func NewBuffer(loc Location) *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.Loc = loc
	b.cur = PathRoot
	b.seeded = 0
	if b.regionIDs == nil {
		b.regionIDs = make(map[string]RegionID)
		b.pathChild = make(map[pathKey]PathID)
	}
	b.pathParent = append(b.pathParent[:0], -1)
	b.pathRegion = append(b.pathRegion[:0], -1)
	return b
}

// Release returns the buffer's storage to the free list.  The caller must
// not touch b afterwards; events already copied out by Merge stay valid.
// Releasing a nil buffer is a no-op, mirroring the recording calls.
func (b *Buffer) Release() {
	if b == nil {
		return
	}
	b.events = b.events[:0] // the newest, largest block serves the next run
	clear(b.full)
	b.full = b.full[:0]
	b.nfull = 0
	clear(b.regions)
	b.regions = b.regions[:0]
	clear(b.regionIDs)
	clear(b.pathChild)
	b.pathParent = b.pathParent[:0]
	b.pathRegion = b.pathRegion[:0]
	b.stack = b.stack[:0]
	b.cur = PathRoot
	b.seeded = 0
	b.sink = nil
	b.spillAt = 0
	b.frame = nil
	b.pending = 0
	b.encoded = 0
	bufferPool.Put(b)
}

// add records ev: into the event slab, or, while a sink is attached, into
// the pending frame.
func (b *Buffer) add(ev *Event) {
	if b.sink != nil {
		b.stream(ev)
		return
	}
	*b.slot() = *ev
}

// minEventBlock is the size of a buffer's first event block.
const minEventBlock = 4

// slot returns the next free slot of the event slab, starting a new block
// when the current one is full.
func (b *Buffer) slot() *Event {
	if len(b.events) == cap(b.events) {
		if len(b.events) > 0 {
			b.full = append(b.full, b.events)
			b.nfull += len(b.events)
		}
		b.events = make([]Event, 0, max(2*cap(b.events), minEventBlock))
	}
	b.events = b.events[:len(b.events)+1]
	return &b.events[len(b.events)-1]
}

// streamRegion streams a kind event for region r at time t on the current
// path: the streamed half of Enter and Exit.  Their materialized half
// builds the event in place in the slab, which add would copy instead.
func (b *Buffer) streamRegion(kind Kind, t float64, r RegionID) {
	b.stream(&Event{Time: t, Kind: kind, Loc: b.Loc, Region: r, Path: b.cur})
}

// stream encodes ev into the pending frame and spills the frame once it
// holds spillAt events.
func (b *Buffer) stream(ev *Event) {
	b.encode(ev)
	if b.pending >= b.spillAt {
		b.sink.spill(b)
	}
}

// encode appends ev to the pending frame.  The frame only grows when an
// event does not fit, and then to hold the rest of the frame's events at
// that event's size.  Every event already in it is at most as large as
// the largest one encoded so far, so growth never takes the capacity past
// spillAt times that size.
func (b *Buffer) encode(ev *Event) {
	if cap(b.frame)-len(b.frame) < maxEventBytes {
		var tmp [maxEventBytes]byte
		enc := appendEvent(tmp[:0], ev)
		if need := len(b.frame) + len(enc); need > cap(b.frame) {
			grown := make([]byte, len(b.frame), need+max(b.spillAt-b.pending-1, 0)*len(enc))
			copy(grown, b.frame)
			b.frame = grown
		}
		b.frame = append(b.frame, enc...)
	} else {
		b.frame = appendEvent(b.frame, ev)
	}
	b.pending++
	b.encoded++
}

// region interns a region name.
func (b *Buffer) region(name string) RegionID {
	if id, ok := b.regionIDs[name]; ok {
		return id
	}
	id := RegionID(len(b.regions))
	b.regions = append(b.regions, name)
	b.regionIDs[name] = id
	return id
}

// child returns (creating if needed) the path node for region under parent.
func (b *Buffer) child(parent PathID, region RegionID) PathID {
	k := pathKey{parent, region}
	if id, ok := b.pathChild[k]; ok {
		return id
	}
	id := PathID(len(b.pathParent))
	b.pathParent = append(b.pathParent, parent)
	b.pathRegion = append(b.pathRegion, region)
	b.pathChild[k] = id
	return id
}

// Enter records entry into the named region at time t.
// A nil Buffer ignores all recording calls, so tracing can be disabled
// without changing the runtime code paths.
func (b *Buffer) Enter(name string, t float64) {
	if b == nil {
		return
	}
	r := b.region(name)
	b.stack = append(b.stack, b.cur)
	b.cur = b.child(b.cur, r)
	if b.sink != nil {
		b.streamRegion(KindEnter, t, r)
		return
	}
	*b.slot() = Event{
		Time: t, Kind: KindEnter, Loc: b.Loc, Region: r, Path: b.cur,
	}
}

// StackNames returns the names of the currently open regions, outermost
// first — the dynamic call path of the executor.
func (b *Buffer) StackNames() []string {
	if b == nil {
		return nil
	}
	var names []string
	for p := b.cur; p > PathRoot; p = b.pathParent[p] {
		names = append(names, b.regions[b.pathRegion[p]])
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// Seed installs an inherited call-path prefix without recording events.
// It is used when an executor forks sub-executors (OpenMP threads): the
// children's events must carry the creating thread's dynamic call path,
// as in EXPERT's call-tree model.  Seeded frames are not matched by Exit.
func (b *Buffer) Seed(names []string) {
	if b == nil {
		return
	}
	if b.Len() > 0 || len(b.stack) > 0 {
		panic("trace: Seed on a non-fresh buffer")
	}
	for _, name := range names {
		r := b.region(name)
		b.stack = append(b.stack, b.cur)
		b.cur = b.child(b.cur, r)
	}
	b.seeded = len(names)
}

// Exit records exit from the current region at time t.
func (b *Buffer) Exit(t float64) {
	if b == nil {
		return
	}
	if len(b.stack) <= b.seeded {
		panic("trace: Exit without matching Enter")
	}
	if r := b.pathRegion[b.cur]; b.sink != nil {
		b.streamRegion(KindExit, t, r)
	} else {
		*b.slot() = Event{
			Time: t, Kind: KindExit, Loc: b.Loc, Region: r, Path: b.cur,
		}
	}
	b.cur = b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
}

// Depth returns the current region-stack depth, excluding seeded frames.
func (b *Buffer) Depth() int {
	if b == nil {
		return 0
	}
	return len(b.stack) - b.seeded
}

// Record appends ev, filling in Loc and the current call path.
func (b *Buffer) Record(ev Event) {
	if b == nil {
		return
	}
	ev.Loc = b.Loc
	ev.Path = b.cur
	b.add(&ev)
}

// Len reports the number of events recorded since NewBuffer, including
// those a streamed buffer has already spilled.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return b.nfull + len(b.events) + b.encoded
}

// Trace is a merged, analysis-ready trace: all locations' events ordered by
// time, with globally interned region names and call paths.
type Trace struct {
	Events  []Event
	Regions []string // region names indexed by RegionID

	// Call-path tree, analogous to Buffer's.
	PathParent []PathID
	PathRegion []RegionID

	Locations []Location // sorted distinct locations

	// pathStrs lazily caches the rendered "a/b/c" form of every call
	// path.  The analyzer keys its per-path accumulators by rendered
	// path, so without the cache every compound event re-walks and
	// re-concatenates its path chain.
	pathStrOnce sync.Once
	pathStrs    []string
}

// Merge combines per-location buffers into a single Trace.  Buffers may be
// nil (ignored).  Events are ordered by (Time, Location), with
// within-location order preserved.
//
// Merge is a drain of NewBufferStream into one slab, so the materialized
// and streamed paths share a single k-way merge and intern tables: region
// and path ids are interned in location order.  Each buffer must be in
// time order, as every executor's clock never runs backwards; that is
// the precondition of Stream and ChunkWriter too.  The buffers' event
// slabs are remapped to global ids in place, so callers Release them
// afterwards.  Two buffers sharing a location are a caller bug and panic.
func Merge(buffers ...*Buffer) *Trace {
	st, err := NewBufferStream(buffers...)
	if err != nil {
		panic(err)
	}
	total := 0
	for _, b := range buffers {
		total += b.Len()
	}
	t, err := st.drain(total)
	if err != nil {
		panic(err)
	}
	return t
}

// RegionName returns the name for id, or a placeholder for invalid ids.
func (t *Trace) RegionName(id RegionID) string {
	if id < 0 || int(id) >= len(t.Regions) {
		return "?"
	}
	return t.Regions[id]
}

// PathString renders a call path as "a/b/c".  The root path renders as "".
// The rendered forms are computed once per trace and cached; parents
// precede children in the path table, so each entry is its parent's
// rendering plus one segment.
func (t *Trace) PathString(p PathID) string {
	if p <= PathRoot || int(p) >= len(t.PathParent) {
		return ""
	}
	t.pathStrOnce.Do(func() {
		strs := make([]string, len(t.PathParent))
		for i := 1; i < len(strs); i++ {
			leaf := t.RegionName(t.PathRegion[i])
			if parent := t.PathParent[i]; parent > PathRoot {
				strs[i] = strs[parent] + "/" + leaf
			} else {
				strs[i] = leaf
			}
		}
		t.pathStrs = strs
	})
	return t.pathStrs[p]
}

// PathLeaf returns the leaf region name of path p ("" for the root).
func (t *Trace) PathLeaf(p PathID) string {
	if p <= PathRoot || int(p) >= len(t.PathParent) {
		return ""
	}
	return t.RegionName(t.PathRegion[p])
}

// Duration returns the time span covered by the trace.
func (t *Trace) Duration() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time - t.Events[0].Time
}

// Start returns the earliest event time (0 for an empty trace).
func (t *Trace) Start() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[0].Time
}

// End returns the latest event time.
func (t *Trace) End() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Time
}

// Shape summarizes the location grid of the trace: the number of distinct
// MPI ranks and the maximum thread count any rank ran with.  It is the run
// metadata the profile store records alongside each baseline.
func (t *Trace) Shape() (ranks, threads int) {
	seen := make(map[int32]bool)
	for _, loc := range t.Locations {
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

// FilterLocation returns the events of a single location, in time order.
func (t *Trace) FilterLocation(loc Location) []Event {
	var out []Event
	for _, ev := range t.Events {
		if ev.Loc == loc {
			out = append(out, ev)
		}
	}
	return out
}
