package analyzer

import (
	"cmp"
	"slices"

	"repro/internal/trace"
)

// Streaming analysis.  StreamAnalyzer is the incremental core both entry
// points share: Analyze feeds it a materialized trace's event slab in
// merged order, AnalyzeStream feeds it a chunk stream in spool order
// (trace.Stream.ForEach).  The report does not depend on the order events
// arrive in, as long as each location's events keep theirs: every
// reduction that sums floating-point waits sums them in an order fixed at
// Finish, and every path is rendered through the same tables.  The two
// paths therefore produce byte-identical reports (and identical
// content-addressed profile hashes) for every spool whose match ids are
// unique and whose locations' event times do not decrease, which covers
// every spool a run writes.
//
// Memory is O(locations + open regions + messages in flight + pairs with
// a positive wait + lock waits + collective parts).  A point-to-point
// half waits in the pending maps (a PathID instead of a rendered string,
// ~40 bytes) only until its partner arrives; the completed pair is
// reduced to its waits at once and kept, as a 48-byte record, only if a
// wait is positive, because the records are accumulated in sorted match
// order at Finish.  Fed in spool order, a half waits until the frame
// that holds its partner is read, so the halves in flight are those of
// the messages whose two frames straddle the read position: about one
// per rank for a ring (259 halves at 256 ranks, TestPendingP2PStaysFlat),
// however many rounds the run has.  A lock event with a wait is kept, as
// a 32-byte record, until Finish sums the waits in (time, location)
// order, so these grow with the contended critical sections a run passes
// through (TestLockRecordsAreTheLockWaits).  Collective participants are
// kept until Finish, matched or not, in a slice each instance makes once
// with room for the participant count its first event carries; Finish
// orders each instance's parts by (time, location) before reducing it.
// Reducing an instance as its last participant arrives is still open
// (ROADMAP.md, "A streaming analyzer that is actually bounded").
// AnalyzeStream adds the batches in
// flight (trace.Stream.ForEach) when the stream holds more than one
// batch: three batches of 4096 events, ~1 MiB, whatever the event count.

// p2pEnd is the pending half of a point-to-point match: for sends the
// operation's enter time, for receives the receive's enter time (Aux).
type p2pEnd struct {
	time  float64 // Send: ev.Time
	aux   float64 // Recv: ev.Aux
	path  trace.PathID
	loc   trace.Location
	flags uint8
}

// p2pWait is a completed point-to-point match with a positive wait: the
// Late Sender wait the receiver incurred and, for a synchronous send, the
// Late Receiver wait the sender incurred (a wait <= 0 adds nothing).
type p2pWait struct {
	match              uint64
	lateSender         float64
	lateReceiver       float64
	sendPath, recvPath trace.PathID
	sendLoc, recvLoc   trace.Location
}

// lockWait is a lock acquisition with a positive wait.
type lockWait struct {
	time float64
	wait float64
	path trace.PathID
	loc  trace.Location
}

// collPart is one participant of a pending collective instance.
type collPart struct {
	time  float64 // completion
	aux   float64 // participant's enter time
	path  trace.PathID
	loc   trace.Location
	crank int32
	root  int32
	flags uint8
}

// StreamAnalyzer consumes a trace's events and produces the Report
// Analyze computes.  Feed events with Add, then call Finish exactly once.
// Events may arrive in any interleaving of the locations that keeps each
// location's own order: merged trace order, spool order, or any other.
// Paths are rendered at Finish, when every referenced path is interned.
//
// A send and a receive with the same match id pair in Add order: a half
// pairs with the opposite half of its id that is pending when it arrives,
// whichever came first, and a half that arrives while another of its own
// kind is pending under that id replaces it.  Engine-written traces never
// repeat a match id (mpi's matchID is the rank's and a per-rank count),
// so there every send pairs with its one receive, whatever the order; on
// a trace that repeats one, the pairs, and so the report, can depend on
// the interleaving.
type StreamAnalyzer struct {
	view trace.View
	rep  *Report
	sb   *trace.StatsBuilder

	// sends and recvs are the point-to-point halves in flight, keyed by
	// match id; waits the completed pairs with a positive wait.
	sends  map[uint64]p2pEnd
	recvs  map[uint64]p2pEnd
	waits  []p2pWait
	locks  []lockWait
	groups map[collKey][]collPart
	// maxParts caps the room a collective instance is made with: the
	// view's location count, so a participant count no run could record
	// costs no more than that.
	maxParts int

	// first and last are the earliest and latest event times.
	first, last float64
	any         bool
}

// NewStreamAnalyzer returns an analyzer consuming events resolved through
// view (a *trace.Trace or *trace.Stream).  A non-positive threshold
// selects the 0.005 default.
func NewStreamAnalyzer(view trace.View, opt Options) *StreamAnalyzer {
	if opt.Threshold <= 0 {
		opt.Threshold = 0.005
	}
	return &StreamAnalyzer{
		view: view,
		rep: &Report{
			Results:   make(map[string]*Result),
			Threshold: opt.Threshold,
		},
		sb:       trace.NewStatsBuilderFor(view),
		sends:    make(map[uint64]p2pEnd),
		recvs:    make(map[uint64]p2pEnd),
		groups:   make(map[collKey][]collPart),
		maxParts: locationCount(view),
	}
}

// locationCount returns the number of locations of view, or 0 for a
// view that does not say.
func locationCount(view trace.View) int {
	switch v := view.(type) {
	case *trace.Trace:
		return len(v.Locations)
	case *trace.Stream:
		return len(v.Locations())
	}
	return 0
}

// add accumulates one compound-event contribution (same semantics as the
// closure in the original Analyze).
func (a *StreamAnalyzer) add(prop string, wait float64, path string, loc trace.Location) {
	if wait <= 0 {
		return
	}
	r := a.rep.Results[prop]
	if r == nil {
		r = newResult(prop)
		a.rep.Results[prop] = r
	}
	r.Wait += wait
	r.Instances++
	r.ByPath[path] += wait
	r.ByLocation[loc] += wait
}

// Add feeds one event, after every earlier event of its location.
func (a *StreamAnalyzer) Add(ev *trace.Event) {
	switch t := ev.Time; {
	case !a.any:
		a.first, a.last, a.any = t, t, true
	case t < a.first:
		a.first = t
	case t > a.last:
		a.last = t
	}
	a.sb.Add(ev)
	switch ev.Kind {
	case trace.KindSend:
		s := p2pEnd{time: ev.Time, path: ev.Path, loc: ev.Loc, flags: ev.Flags}
		if r, ok := a.recvs[ev.Match]; ok {
			delete(a.recvs, ev.Match)
			a.pair(ev.Match, &s, &r)
		} else {
			a.sends[ev.Match] = s
		}
		a.rep.Messages.Count++
		a.rep.Messages.Bytes += ev.Bytes
	case trace.KindRecv:
		r := p2pEnd{aux: ev.Aux, path: ev.Path, loc: ev.Loc}
		if s, ok := a.sends[ev.Match]; ok {
			delete(a.sends, ev.Match)
			a.pair(ev.Match, &s, &r)
		} else {
			a.recvs[ev.Match] = r
		}
	case trace.KindColl:
		k := collKey{ev.Coll, ev.Match}
		parts := a.groups[k]
		if parts == nil && ev.Parts > 0 {
			// The instance's first part brings its participant count.
			parts = make([]collPart, 0, min(int(ev.Parts), a.maxParts))
		}
		a.groups[k] = append(parts, collPart{
			time: ev.Time, aux: ev.Aux, path: ev.Path, loc: ev.Loc,
			crank: ev.CRank, root: ev.Root, flags: ev.Flags,
		})
	case trace.KindLock:
		if ev.Aux > 0 {
			a.locks = append(a.locks, lockWait{time: ev.Time, wait: ev.Aux, path: ev.Path, loc: ev.Loc})
		}
	}
}

// Finish runs the sorted reductions over the pending compound state and
// returns the completed report.
func (a *StreamAnalyzer) Finish() *Report {
	rep := a.rep
	if a.any {
		rep.Duration = a.last - a.first
	}
	stats := a.sb.Finish()
	rep.TotalTime = stats.TotalTime
	rep.Stats = stats

	a.reduceLocks()
	a.reduceP2P()
	a.reduceCollectives()
	detectCostMetrics(stats, rep)
	if rep.Messages.Count > 0 {
		rep.Messages.AvgBytes = float64(rep.Messages.Bytes) / float64(rep.Messages.Count)
		if rep.Duration > 0 {
			rep.Messages.Rate = float64(rep.Messages.Count) / rep.Duration
		}
	}
	for _, r := range rep.Results {
		if stats.TotalTime > 0 {
			r.Severity = r.Wait / stats.TotalTime
		}
	}
	return rep
}

// pair reduces the completed match m to its waits and keeps them if one
// is positive.
func (a *StreamAnalyzer) pair(m uint64, s, r *p2pEnd) {
	w := p2pWait{
		match: m,
		// Late sender: the receiver entered its receive before the send
		// operation started.
		lateSender: s.time - r.aux,
		sendPath:   s.path, recvPath: r.path,
		sendLoc: s.loc, recvLoc: r.loc,
	}
	// Late receiver: a synchronous sender blocked until the receive was
	// posted.
	if s.flags&trace.FlagSync != 0 {
		w.lateReceiver = r.aux - s.time
	}
	if w.lateSender > 0 || w.lateReceiver > 0 {
		a.waits = append(a.waits, w)
	}
}

// reduceP2P accumulates the completed pairs' Late Sender / Late Receiver
// waits.  Halves still pending never paired (a truncated trace) and add
// nothing.
func (a *StreamAnalyzer) reduceP2P() {
	// Accumulate in match order: wait times are summed with
	// floating-point additions, so stream-order accumulation would tie
	// the low bits of Result.Wait to the merge order and break the
	// profile store's content-addressed identity.  The sort is stable,
	// so pairs sharing a match id keep their stream order.
	slices.SortStableFunc(a.waits, func(x, y p2pWait) int { return cmp.Compare(x.match, y.match) })
	for i := range a.waits {
		w := &a.waits[i]
		if w.lateSender > 0 {
			a.add(PropLateSender, w.lateSender, a.view.PathString(w.recvPath), w.recvLoc)
		}
		if w.lateReceiver > 0 {
			a.add(PropLateReceiver, w.lateReceiver, a.view.PathString(w.sendPath), w.sendLoc)
		}
	}
}

// reduceLocks accumulates the lock waits in (time, location) order, the
// order a merged trace holds them in, so the sums do not depend on the
// order Add met them in.  The sort is stable, so one location's waits at
// one time keep their order.
func (a *StreamAnalyzer) reduceLocks() {
	slices.SortStableFunc(a.locks, func(x, y lockWait) int { return compareAt(x.time, x.loc, y.time, y.loc) })
	for i := range a.locks {
		l := &a.locks[i]
		a.add(PropOMPCritical, l.wait, a.view.PathString(l.path), l.loc)
	}
}

// compareAt orders events by (time, location), the merged trace order.
func compareAt(xt float64, xl trace.Location, yt float64, yl trace.Location) int {
	if c := cmp.Compare(xt, yt); c != 0 {
		return c
	}
	return xl.Compare(yl)
}

// compareParts orders collective parts by (time, location).
func compareParts(x, y collPart) int { return compareAt(x.time, x.loc, y.time, y.loc) }

// reduceCollectives derives the wait-state properties of each collective
// class from the pending instance groups.
func (a *StreamAnalyzer) reduceCollectives() {
	// Sorted instance order for deterministic float accumulation (see
	// reduceP2P).
	keys := make([]collKey, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y collKey) int {
		if c := cmp.Compare(x.coll, y.coll); c != 0 {
			return c
		}
		return cmp.Compare(x.match, y.match)
	})
	for _, k := range keys {
		// Each instance's parts in merged order, so each instance's sums
		// run as they do on a merged trace.  Parts fed in that order are
		// sorted already.
		parts := a.groups[k]
		if !slices.IsSortedFunc(parts, compareParts) {
			slices.SortStableFunc(parts, compareParts)
		}
		switch k.coll {
		case trace.CollBarrier:
			a.nxnWaits(parts, PropWaitAtBarrier)

		case trace.CollBcast, trace.CollScatter, trace.CollScatterv:
			// 1-to-N: non-roots wait for the root.
			var rootEnter float64
			found := false
			for i := range parts {
				if parts[i].flags&trace.FlagRoot != 0 {
					rootEnter, found = parts[i].aux, true
					break
				}
			}
			if !found {
				continue
			}
			for i := range parts {
				p := &parts[i]
				if p.flags&trace.FlagRoot != 0 {
					continue
				}
				if wait := rootEnter - p.aux; wait > 0 {
					a.add(PropLateBroadcast, wait, a.view.PathString(p.path), p.loc)
				}
			}

		case trace.CollReduce, trace.CollGather, trace.CollGatherv:
			// N-to-1: the root waits for its last contributor.
			var root *collPart
			lastOther := -1.0
			for i := range parts {
				if parts[i].flags&trace.FlagRoot != 0 {
					root = &parts[i]
				} else if parts[i].aux > lastOther {
					lastOther = parts[i].aux
				}
			}
			if root == nil || lastOther < 0 {
				continue
			}
			if wait := lastOther - root.aux; wait > 0 {
				a.add(PropEarlyReduce, wait, a.view.PathString(root.path), root.loc)
			}

		case trace.CollAlltoall, trace.CollAlltoallv, trace.CollAllreduce,
			trace.CollAllgather, trace.CollAllgatherv, trace.CollReduceScatter:
			a.nxnWaits(parts, PropWaitAtNxN)

		case trace.CollScan:
			// Rank i waits for the slowest of ranks 0..i.
			slices.SortFunc(parts, func(x, y collPart) int { return cmp.Compare(x.crank, y.crank) })
			prefixMax := -1.0
			for i := range parts {
				p := &parts[i]
				if p.aux > prefixMax {
					prefixMax = p.aux
				}
				if wait := prefixMax - p.aux; wait > 0 {
					a.add(PropWaitAtNxN, wait, a.view.PathString(p.path), p.loc)
				}
			}

		case trace.CollOMPBarrier:
			a.nxnWaits(parts, PropOMPBarrier)
		case trace.CollOMPForEnd:
			a.nxnWaits(parts, PropOMPLoop)
		case trace.CollOMPSection:
			a.nxnWaits(parts, PropOMPSections)
		case trace.CollOMPJoin:
			a.nxnWaits(parts, PropOMPRegion)
		case trace.CollOMPSingle:
			// Root is the executing thread; everyone else idles from
			// arrival to release.
			for i := range parts {
				p := &parts[i]
				if p.crank == p.root {
					continue
				}
				if wait := p.time - p.aux; wait > 0 {
					a.add(PropOMPSingle, wait, a.view.PathString(p.path), p.loc)
				}
			}
		}
	}
}

// nxnWaits attributes (maxEnter - enter) waiting to each participant of a
// fully synchronizing operation.
func (a *StreamAnalyzer) nxnWaits(parts []collPart, prop string) {
	maxEnter := -1.0
	for i := range parts {
		if parts[i].aux > maxEnter {
			maxEnter = parts[i].aux
		}
	}
	for i := range parts {
		p := &parts[i]
		if wait := maxEnter - p.aux; wait > 0 {
			a.add(prop, wait, a.view.PathString(p.path), p.loc)
		}
	}
}

// AnalyzeStream drains a chunk stream through a StreamAnalyzer in spool
// order (trace.Stream.ForEach), without merging it.  The report is
// byte-identical to Analyze on the materialized trace of the same run
// whenever the spool's match ids are unique and no location's event times
// decrease, as in every spool a run writes; on a spool that repeats a
// match id, sends and receives pair in spool order, so the report can
// differ from Analyze's.  Peak memory is O(locations + open regions +
// messages in flight + pairs with a positive wait + lock waits +
// collective parts) instead of the whole event list.  A stream of more
// than one batch of events (4096) is read on a second goroutine while
// this one analyzes, with up to three batches, ~1 MiB, in flight.
func AnalyzeStream(src *trace.Stream, opt Options) (*Report, error) {
	a := NewStreamAnalyzer(src, opt)
	if err := src.ForEach(a.Add); err != nil {
		return nil, err
	}
	return a.Finish(), nil
}
