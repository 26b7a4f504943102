package mpi

// The event engine: a single-stepped, virtual-clock-ordered scheduler
// that replaces goroutine-per-rank free running (and with it the
// World.spoilers poll loop) with deterministic event dispatch.
//
// Go has no first-class continuations, so a rank's "resumable state
// machine" is its goroutine, parked on a per-rank resume channel: the
// parked stack *is* the continuation, and its memory cost is one small
// goroutine stack — the scheduler's own state stays O(ranks + pending
// events).  What changes relative to the goroutine engine is the
// execution discipline:
//
//   - At most one rank steps at a time: the one holding the run token.
//     A rank that parks at a blocking operation, or finishes, pops the
//     ready rank with the minimum (virtual clock, rank) key itself and
//     resumes it over that rank's resume channel — one goroutine switch
//     per step.  The scheduler goroutine is handed the token only when
//     the ready heap drains (quiescence or deadlock); it also wakes when
//     the last rank finishes and when the world fails.  Because exactly
//     one goroutine holds the token, the holder may mutate scheduler
//     state (the ready heap, the wildcard-waiter list, the peers its
//     sends, collective completions and rendezvous acks unblock) without
//     locks; the token's channel hand-offs provide the happens-before
//     edges, which is why the -race stress tests can enforce the
//     single-threaded dispatch invariant rather than assume it.
//
//   - Blocking operations park instead of spinning: a specific-source
//     receive parks until the matching post readies it; a collective
//     participant parks until the last arriver computes the operation; a
//     rendezvous sender parks until the receiver acknowledges.  No
//     condition variables, no polling, no sleeps.
//
//   - Wildcard (AnySource) receives are resolved at quiescence.  When
//     the ready heap drains, every live rank is parked, so the spoiler
//     question — "could any rank still produce a message arriving before
//     the best queued candidate?" — has a deterministic answer: only a
//     rank whose clock is behind the candidate's arrival and whose own
//     mailbox holds unconsumed messages might.  This is exactly the
//     predicate the goroutine engine's poll loop evaluates, evaluated at
//     a quiescent instant instead of 20µs at a time; releases can only
//     see *more* candidates than the goroutine engine did, and any later
//     candidate from a non-spoiler rank arrives strictly after the
//     chosen one (transfer latency is positive), so both engines choose
//     the same message — the property the differential harness
//     (engine_diff_test.go, conformance.DiffEngines) locks in.
//
//   - A drained heap with no releasable wildcard receive is a structural
//     deadlock, reported immediately with the parked ranks' identities
//     instead of waiting out the real-time watchdog.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// proc.evState values.  Transitions: evReady -> evRunning (dispatch),
// evRunning -> evRecv/evColl/evAck (park) or evDone (return),
// parked -> evReady (post/completion/grant or abort resume).
const (
	evRunning int32 = iota // holds the run token (or is being dispatched)
	evReady                // in the ready heap
	evRecv                 // parked in mailbox.matchEvent
	evColl                 // parked in collEngine.join
	evAck                  // parked in waitAck (rendezvous sender)
	evDone                 // rank goroutine finished
)

// evWaitName names a parked state for deadlock diagnostics.
func evWaitName(st int32) string {
	switch st {
	case evRecv:
		return "in receive"
	case evColl:
		return "in collective"
	case evAck:
		return "awaiting rendezvous ack"
	case evReady, evRunning:
		return "runnable"
	default:
		return "unknown"
	}
}

// evItem orders the ready heap by (virtual clock at ready time, rank).
// The clock of a parked rank cannot change (only the owning goroutine
// advances it), so the key is stable while queued.
type evItem struct {
	key  float64
	rank int
}

// evHeap is a binary min-heap of ready ranks.  (key, rank) is a strict
// total order — a rank is queued at most once — so the pop sequence is a
// function of the pushes alone, whatever the heap's internal layout.
type evHeap []evItem

func (h evHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].rank < h[j].rank
}

func (h *evHeap) push(it evItem) {
	q := append(*h, it)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *evHeap) pop() evItem {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return top
}

// evScheduler is the per-World event dispatcher.  ready and wild belong
// to whichever goroutine holds the run token — the running rank, or the
// scheduler goroutine while it resolves quiescence — and the token's
// channel hand-offs order every access.  A goroutine that has seen the
// world fail no longer touches them.
type evScheduler struct {
	w     *World
	ready evHeap
	// notes hands the run token to the scheduler goroutine when the ready
	// heap drains.  One slot suffices: the token is unique, so at most one
	// hand-off is outstanding, and the scheduler stops receiving only once
	// it has stopped dispatching.
	notes chan struct{}
	// finished is closed by the last rank to finish.
	finished chan struct{}
	// live counts unfinished ranks; finishing ranks decrement it, so it
	// is atomic.
	live atomic.Int32
	// wild tracks procs parked in wildcard receives so quiesce never
	// scans all ranks to find its waiters; stale entries (granted or
	// re-parked elsewhere) are compacted away on each quiescence.
	wild []*proc
	// wakes counts the hand-offs the scheduler goroutine has handled.
	wakes int
}

func newEvScheduler(w *World) *evScheduler {
	s := &evScheduler{
		w:        w,
		ready:    make(evHeap, 0, len(w.procs)),
		notes:    make(chan struct{}, 1),
		finished: make(chan struct{}),
	}
	s.live.Store(int32(len(w.procs)))
	return s
}

// readyProc moves a parked (or fresh) proc into the ready heap.  Called
// by the token holder: the running rank (message post, collective
// completion, rendezvous ack) or the scheduler (initial fill, wildcard
// grants).  Once the world has failed the heap is dead: abort resumes
// every parked rank, and storing evReady first lets its scan see this
// one (see park).
func (s *evScheduler) readyProc(p *proc) {
	p.evState.Store(evReady)
	if s.w.failed.Load() {
		return
	}
	s.ready.push(evItem{key: p.ctx.Clock.Now(), rank: p.rank})
}

// resume hands p the run token.  The send never blocks: p's one-slot
// resume channel can only be full if abort already woke it, and a second
// token would wake it no further.
func (p *proc) resume() {
	select {
	case p.evResume <- struct{}{}:
	default:
	}
}

// passOn hands the run token from the calling rank, which has just
// parked or finished, to the next ready rank, or to the scheduler
// goroutine when the heap has drained.
func (s *evScheduler) passOn() {
	if len(s.ready) == 0 {
		s.notes <- struct{}{}
		return
	}
	s.dispatch()
}

// dispatch pops the next ready rank and resumes it.
func (s *evScheduler) dispatch() {
	p := s.w.procs[s.ready.pop().rank]
	p.evState.Store(evRunning)
	p.resume()
}

// loop starts the first rank, then resolves each quiescence the ranks
// hand it until the last rank finishes.  It runs on its own goroutine;
// Run waits for it under the real-time watchdog.
func (s *evScheduler) loop() {
	s.dispatch()
	for {
		select {
		case <-s.notes:
		case <-s.w.failCh:
			// Failure (rank panic, OMP thread failure, watchdog): stop
			// dispatching and unwind everyone.
			s.abort()
			return
		case <-s.finished:
			return
		}
		s.wakes++
		if !s.quiesce() {
			// Nothing runnable and no wildcard receive can be released:
			// the program is structurally deadlocked.
			s.w.fail(s.deadlockError())
			s.abort()
			return
		}
		if len(s.ready) > 0 { // empty only if the world failed meanwhile
			s.dispatch()
		}
	}
}

// quiesce resolves wildcard receives once the ready heap has drained.
// It releases the lowest-ranked AnySource waiter whose best candidate
// can no longer be beaten — no live rank with a clock behind the
// candidate's arrival still holds unconsumed mail — mirroring the
// goroutine engine's spoiler predicate at a quiescent instant.  If every
// waiter with candidates is spoiled by another parked rank's unconsumed
// mailbox (the mutual-wait livelock the goroutine engine escapes with
// its poll cap), the lowest-ranked waiter is deterministically forced to
// accept its best candidate.  Returns false if no rank became runnable.
func (s *evScheduler) quiesce() bool {
	// Compact the waiter list: entries granted or resumed since they were
	// recorded are no longer parked wildcard receives.
	live := s.wild[:0]
	for _, p := range s.wild {
		if p.evState.Load() == evRecv && p.evSrc == AnySource {
			live = append(live, p)
		} else {
			p.evInWild = false
		}
	}
	s.wild = live
	if len(s.wild) == 0 {
		return false
	}
	// Release order is rank order, matching the goroutine engine's
	// deterministic tie-break (list insertion order is parking order).
	sort.Slice(s.wild, func(i, j int) bool { return s.wild[i].rank < s.wild[j].rank })
	occ := s.w.mailOcc.Load()
	var forced *proc
	for _, p := range s.wild {
		avail, idx, ok := p.mb.bestAvail(p.evCid, p.evTag)
		if !ok {
			continue
		}
		// Remember the candidate: if this waiter is granted (here or as
		// the forced fallback), its take reuses the index instead of
		// rescanning the backlog — nothing runs between this scan and the
		// granted rank's resume, so the queue cannot change.
		p.evGrantIdx = idx
		if forced == nil {
			forced = p
		}
		// Occupancy fast path: a waiter with a candidate has mail itself,
		// so occ == 1 means no *other* rank holds mail — nothing can
		// spoil, skip the O(ranks) scan.  This keeps master/worker-style
		// programs (one wildcard drain per message) linear in rank count.
		if occ > 1 && s.spoiled(p, avail) {
			continue
		}
		p.evGrant = true
		s.readyProc(p)
		return true
	}
	if forced != nil {
		forced.evGrant = true
		s.readyProc(forced)
		return true
	}
	return false
}

// spoiled reports whether any rank other than me could still produce a
// message arriving before avail: its clock is behind avail and its own
// mailbox holds deliverable messages it may yet consume and respond to.
// At quiescence no rank is running, so this is the blocked-rank half of
// World.spoilers.
func (s *evScheduler) spoiled(me *proc, avail float64) bool {
	for _, q := range s.w.procs {
		if q == me || q.evState.Load() == evDone {
			continue
		}
		if q.ctx.Clock.Now() < avail && q.mb.qlen.Load() > 0 {
			return true
		}
	}
	return false
}

// deadlockError names the parked ranks (the watchdog-timeout upgrade the
// event engine makes possible: a structural deadlock is detected the
// moment it forms).
func (s *evScheduler) deadlockError() error {
	var parked []string
	blocked := 0
	for _, p := range s.w.procs {
		st := p.evState.Load()
		if st == evDone {
			continue
		}
		blocked++
		if len(parked) < 8 {
			parked = append(parked, fmt.Sprintf("rank %d %s", p.rank, evWaitName(st)))
		}
	}
	more := ""
	if blocked > len(parked) {
		more = fmt.Sprintf(", and %d more", blocked-len(parked))
	}
	return fmt.Errorf("mpi: deadlock detected: %d rank(s) blocked with nothing deliverable (%s%s)",
		blocked, strings.Join(parked, "; "), more)
}

// abort resumes every parked or ready rank so it observes the recorded
// failure (park panics with an abortError once World.failed is set) and
// unwinds, then waits for every rank to finish.  A rank that parks after
// the scan sees the failure itself: park stores its state before it
// reads World.failed and the scan reads states after fail set it, so
// one of the two sees the other.  A rank stuck in user code never
// finishes; Run's watchdog grace period gives up on the world in that
// case, exactly as the goroutine engine does.
func (s *evScheduler) abort() {
	for _, p := range s.w.procs {
		switch p.evState.Load() {
		case evReady, evRecv, evColl, evAck:
			p.resume()
		}
	}
	<-s.finished
}

// park blocks the calling rank until it is resumed: the rank's half of
// the hand-off protocol, called from every event-engine blocking point
// with no locks held.  kind records why the rank is parked (deadlock
// diagnostics, abort scans); receive parks additionally set
// evCid/evSrc/evTag first.  The parking rank passes the run token on
// itself.  On a failed world park panics with the abort error instead of
// blocking, so unwinding never stalls.
func (p *proc) park(kind int32) {
	w := p.w
	p.evState.Store(kind)
	if w.failed.Load() {
		panic(abortError{cause: w.failError()})
	}
	s := w.sched
	if kind == evRecv && p.evSrc == AnySource && !p.evInWild {
		p.evInWild = true
		s.wild = append(s.wild, p)
	}
	s.passOn()
	<-p.evResume
	if w.failed.Load() {
		panic(abortError{cause: w.failError()})
	}
}

// finish retires the calling rank once its body has returned or
// unwound, passing the run token on unless the world has failed.
func (s *evScheduler) finish(p *proc) {
	p.evState.Store(evDone)
	switch {
	case s.live.Add(-1) == 0:
		close(s.finished)
	case !s.w.failed.Load():
		s.passOn()
	}
}
