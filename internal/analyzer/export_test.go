package analyzer

import (
	"slices"

	"repro/internal/trace"
)

// KeepEveryHalfReport analyzes the events feed hands to add with the
// point-to-point reduction the StreamAnalyzer had before pairs were
// reduced as they complete: every send and receive half is kept, keyed by
// match id, until the end, and the pairs are reduced in sorted match
// order.  Everything else is the StreamAnalyzer's own code, so its report
// is comparable field by field with the current reduction's.
func KeepEveryHalfReport(view trace.View, opt Options, feed func(add func(*trace.Event))) *Report {
	a := NewStreamAnalyzer(view, opt)
	sends := make(map[uint64]p2pEnd)
	recvs := make(map[uint64]p2pEnd)
	feed(func(ev *trace.Event) {
		switch ev.Kind {
		case trace.KindSend:
			sends[ev.Match] = p2pEnd{time: ev.Time, path: ev.Path, loc: ev.Loc, flags: ev.Flags}
		case trace.KindRecv:
			recvs[ev.Match] = p2pEnd{aux: ev.Aux, path: ev.Path, loc: ev.Loc}
		}
		a.Add(ev)
	})
	// Finish reduces the point-to-point pairs first, so reducing them
	// here, with Finish's own pairs dropped, accumulates in its order.
	a.waits = nil
	matches := make([]uint64, 0, len(sends))
	for m := range sends {
		matches = append(matches, m)
	}
	slices.Sort(matches)
	for _, m := range matches {
		s := sends[m]
		r, ok := recvs[m]
		if !ok {
			continue
		}
		if wait := s.time - r.aux; wait > 0 {
			a.add(PropLateSender, wait, a.view.PathString(r.path), r.loc)
		}
		if s.flags&trace.FlagSync != 0 {
			if wait := r.aux - s.time; wait > 0 {
				a.add(PropLateReceiver, wait, a.view.PathString(s.path), s.loc)
			}
		}
	}
	return a.Finish()
}

// PendingP2P returns the number of point-to-point halves a holds until
// their partners arrive.
func (a *StreamAnalyzer) PendingP2P() int { return len(a.sends) + len(a.recvs) }

// P2PWaits returns the number of completed pairs a keeps for Finish.
func (a *StreamAnalyzer) P2PWaits() int { return len(a.waits) }

// LockWaits returns the number of lock waits a keeps for Finish.
func (a *StreamAnalyzer) LockWaits() int { return len(a.locks) }

// CollectiveParts returns the parts a keeps of its collective instances,
// the room their slices hold, and the instance count.
func (a *StreamAnalyzer) CollectiveParts() (parts, room, instances int) {
	for _, g := range a.groups {
		parts += len(g)
		room += cap(g)
	}
	return parts, room, len(a.groups)
}
