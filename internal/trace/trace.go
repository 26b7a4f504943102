// Package trace implements the ATS event-trace layer.
//
// The original ATS validates analysis tools (EXPERT, Vampir, …) against
// traces produced by instrumented runs of the synthetic test programs.
// This reproduction needs the tool side as well, so the runtime records
// event traces directly: region enter/exit, point-to-point message events,
// collective-operation events, and thread fork/join.  Each execution
// location (MPI rank × OpenMP thread) writes to its own Buffer without
// locking.  A Recorder hands the buffers out and spills them, as they
// record, to a chunk spool: a caller's file, read back incrementally by
// a Stream so analysis memory stays bounded at large rank counts, or an
// in-memory spool that the Recorder merges into a Trace at the end of the
// run.
//
// Call paths are interned as a tree so that every event carries the full
// dynamic call path at constant cost — the analyzer's "call graph pane"
// (paper Fig 3.5) is reconstructed from these path ids.
//
// One binary encoding exists, the ATSC chunk spool: a streaming run
// writes it through a ChunkWriter, Trace.Write spools a merged trace into
// it, Read merges it back into a Trace, and NewStream reads it back as a
// stream.  doc/FORMATS.md is the normative spec.
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

// Compare orders locations rank-major, as less does, for
// slices.SortFunc: it returns -1, 0 or +1 as l sorts before, with or
// after o.
func (l Location) Compare(o Location) int {
	if c := cmp.Compare(l.Rank, o.Rank); c != 0 {
		return c
	}
	return cmp.Compare(l.Thread, o.Thread)
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
// Kind; unused fields are zero.  The byte-sized fields sit together after
// the times, so the struct takes 80 bytes without padding holes.
type Event struct {
	Time  float64  // event timestamp (seconds since run epoch)
	Aux   float64  // secondary timestamp or duration (see Kind docs)
	Kind  Kind     //
	Coll  CollKind // Coll: the collective operation
	Flags uint8
	Loc   Location // where the event happened

	Region RegionID // Enter/Exit: region, the leaf of Path; Coll: unused
	Path   PathID   // call path at event time (after Enter / before Exit)

	// Point-to-point payload.
	Peer  int32  // comm-local peer rank (dest for Send, source for Recv)
	CRank int32  // own comm-local rank at the event
	Tag   int32  // message tag
	Bytes int64  // payload size in bytes
	Match uint64 // match id linking Send↔Recv, or collective instance id

	// Collective payload.
	Root  int32 // comm-local root rank (rooted collectives), else -1
	Comm  int32 // communicator context id (MPI) or team id (OMP)
	Parts int32 // participant count of the instance (communicator or team size); 0 if unknown
}

// Buffer collects the events of a single location.  It is owned by exactly
// one goroutine and performs no locking.  Region names and call paths are
// interned locally and remapped during merge.
type Buffer struct {
	Loc Location

	regions []string

	// Call-path tree: node i has parent pathParent[i] and leaf region
	// pathRegion[i].  Node 0 is the root (empty path).
	pathParent []PathID
	pathRegion []RegionID

	// regionIDs and pathChild index the tables once they outgrow
	// internScan entries; smaller tables are scanned.  A pooled buffer
	// keeps them, emptied, for its next large table.
	regionIDs map[string]RegionID
	pathChild map[pathKey]PathID

	stack  []PathID // current path stack; top is current path
	cur    PathID
	seeded int // frames installed by Seed (not matched by Exit)

	// frame holds the buffer's pending events as they will be spooled, in
	// appendEvent's encoding; pending counts them.  While a sink is
	// attached the frame is spilled as a chunk frame whenever pending
	// reaches spillAt, so the buffer holds at most spillAt pending events
	// however long the run is; the sink's frame index still grows by one
	// 16-byte ref per spilled frame.  The intern tables are never spilled
	// away — paths and regions keep their local ids across frames and the
	// sink writes table deltas per frame.  Set via ChunkWriter.Attach
	// (Recorder.Buffer attaches), which also hands the buffer its
	// stream's writer state, so a spill looks nothing up.  A buffer never
	// attached keeps every event it records, for Merge to spool as one
	// frame.
	sink    *ChunkWriter
	stream  *chunkStream
	spillAt int
	frame   []byte
	pending int
	encoded int // events recorded since NewBuffer
}

type pathKey struct {
	parent PathID
	region RegionID
}

// bufferPool recycles Buffer objects — their intern tables, the maps of
// tables that outgrew internScan, and region stacks — between runs.
// Campaigns execute hundreds of worlds back to back; without the pool
// every run re-grows every location's tables from scratch.  An attached
// buffer's frame bytes go back to its ChunkWriter instead (see
// ChunkWriter.Finish); a frame a buffer grew for Merge comes back with
// it, and the next Attach drops it.
var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// NewBuffer returns an empty buffer for the given location.  Buffers are
// drawn from a process-wide free list; pass them to Release once their
// events are spooled or merged to recycle their storage.
func NewBuffer(loc Location) *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.Loc = loc
	b.cur = PathRoot
	b.seeded = 0
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
	b.stream = nil
	b.spillAt = 0
	b.frame = b.frame[:0]
	b.pending = 0
	b.encoded = 0
	bufferPool.Put(b)
}

// add records ev into the pending frame and, while a sink is attached,
// spills the frame once it holds spillAt events.
func (b *Buffer) add(ev *Event) {
	b.encode(ev)
	if b.sink != nil && b.pending >= b.spillAt {
		b.sink.spill(b)
	}
}

// encode appends ev to the pending frame.  An unattached buffer's frame
// grows by amortised doubling.  An attached buffer's frame only grows when
// an event does not fit, and then to hold the rest of the frame's events
// at that event's size.  Every event already in it is at most as large as
// the largest one encoded so far, so growth never takes the capacity past
// spillAt times that size.
func (b *Buffer) encode(ev *Event) {
	if b.sink != nil && cap(b.frame)-len(b.frame) < maxEventBytes {
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

// internScan is the most entries an intern table holds while it is
// scanned; a larger one is indexed by a map.  A location of a
// 16384-rank scale world interns 6 regions and 7 paths, and two maps per
// location were ~9 MB of such a world's heap.
const internScan = 16

// region interns a region name.
func (b *Buffer) region(name string) RegionID {
	if len(b.regions) > internScan {
		if id, ok := b.regionIDs[name]; ok {
			return id
		}
	} else {
		for i, r := range b.regions {
			if r == name {
				return RegionID(i)
			}
		}
	}
	id := RegionID(len(b.regions))
	b.regions = append(b.regions, name)
	switch n := len(b.regions); {
	case n == internScan+1:
		if b.regionIDs == nil {
			b.regionIDs = make(map[string]RegionID, 2*n)
		}
		for i, r := range b.regions {
			b.regionIDs[r] = RegionID(i)
		}
	case n > internScan+1:
		b.regionIDs[name] = id
	}
	return id
}

// child returns (creating if needed) the path node for region under parent.
// The root, node 0, is never a child.
func (b *Buffer) child(parent PathID, region RegionID) PathID {
	k := pathKey{parent, region}
	if len(b.pathParent) > internScan {
		if id, ok := b.pathChild[k]; ok {
			return id
		}
	} else {
		for i := 1; i < len(b.pathParent); i++ {
			if b.pathParent[i] == parent && b.pathRegion[i] == region {
				return PathID(i)
			}
		}
	}
	id := PathID(len(b.pathParent))
	b.pathParent = append(b.pathParent, parent)
	b.pathRegion = append(b.pathRegion, region)
	switch n := len(b.pathParent); {
	case n == internScan+1:
		if b.pathChild == nil {
			b.pathChild = make(map[pathKey]PathID, 2*n)
		}
		for i := 1; i < n; i++ {
			b.pathChild[pathKey{b.pathParent[i], b.pathRegion[i]}] = PathID(i)
		}
	case n > internScan+1:
		b.pathChild[k] = id
	}
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
	b.add(&Event{Time: t, Kind: KindEnter, Loc: b.Loc, Region: r, Path: b.cur})
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
	b.add(&Event{Time: t, Kind: KindExit, Loc: b.Loc, Region: b.pathRegion[b.cur], Path: b.cur})
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

// Record appends ev, filling in Loc and the current call path.  An Enter
// or Exit recorded this way takes its region from that path, as the
// encoding carries no other; Enter and Exit are the way to record them.
func (b *Buffer) Record(ev Event) {
	if b == nil {
		return
	}
	ev.Loc = b.Loc
	ev.Path = b.cur
	b.add(&ev)
}

// Len reports the number of events recorded since NewBuffer, including
// those an attached buffer has already spilled.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return b.encoded
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
// Merge spools each buffer's events, with its intern tables, as one
// chunk frame into a pooled in-memory spool and reads the spool back, so
// it merges through the Stream every other trace goes through.  Region
// and path ids are interned in location order: the first location's
// tables, then the second's new names, and so on.  Each buffer must be in
// time order, as every executor's clock never runs backwards; that is the
// precondition of Stream and ChunkWriter too.  Merge only reads the
// buffers; callers Release them afterwards.  Two buffers sharing a
// location are a caller bug and panic.
func Merge(buffers ...*Buffer) *Trace {
	spool, err := SpoolInMemory(func(w *ChunkWriter) error {
		for _, b := range buffers {
			if b != nil {
				w.writeBuffer(b)
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	defer spool.Release()
	tr, err := spool.read()
	if err != nil {
		panic(err)
	}
	return tr
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
