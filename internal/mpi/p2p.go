package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Status describes a completed receive (MPI_Status).
type Status struct {
	// Source is the comm-local rank of the sender.
	Source int
	// Tag is the message tag.
	Tag int
	// Count is the number of elements received.
	Count int
}

// message is an in-flight point-to-point message.
type message struct {
	cid   int32
	src   int // comm-local source rank
	tag   int
	dtype Datatype
	count int
	data  []byte
	slab  *[]byte // data's free-list box (see getBytes)

	sendEnter float64 // time the sender entered the send operation
	avail     float64 // virtual arrival time (eager protocol)
	jitter    float64 // extra perturbed wire latency (see perturb.Model)
	sync      bool    // rendezvous protocol
	match     uint64

	// ack carries the virtual transfer-end time back to a rendezvous
	// sender (0 in real mode).  Buffered so the receiver never blocks.
	// Goroutine engine only.
	ack chan float64

	// Rendezvous completion under the event engine: the receiver stores
	// the transfer end and readies the parked sender directly (the
	// scheduler handoff serializes all access, so no channel is needed).
	acked  bool
	ackEnd float64
	waiter *proc // sender parked in waitAck, if any
}

// matchID derives the deterministic trace match id of a p2p message: the
// sender's world rank and its program-order send count.  A pure function
// of the program — identical across engines and host schedules — unlike
// the racy global counter it replaced.
func matchID(p *proc) uint64 {
	p.sendCount++
	return (uint64(p.rank)+1)<<40 | (p.sendCount & (1<<40 - 1))
}

// mailbox is a rank's incoming message queue with MPI matching semantics:
// per-sender, per-communicator, per-tag ordering is the post order (MPI's
// non-overtaking rule).  See take for the full matching rules, including
// the deterministic virtual-arrival-order treatment of AnySource.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// q[head:] holds the pending messages; consuming from the front only
	// advances head (amortized O(1) even under large backlogs — a sender
	// racing ahead of its receiver must not make matching quadratic), and
	// an emptied queue rewinds to q[:0].
	q     []*message
	head  int
	w     *World
	owner *proc // the rank that receives from this mailbox
	// qlen mirrors the pending count for lock-free inspection by the
	// spoiler check of other ranks' wildcard receives.
	qlen atomic.Int32
}

// setQlen updates the pending-count mirror and maintains the world-wide
// count of occupied mailboxes (World.mailOcc), which lets the event
// scheduler's quiescence check conclude "no other rank holds mail, so
// nothing can spoil this wildcard" in O(1) instead of scanning every proc
// — the difference between linear and quadratic total cost for
// master/worker programs at 10⁴–10⁵ ranks.
func (mb *mailbox) setQlen(n int32) {
	old := mb.qlen.Swap(n)
	if old == 0 && n > 0 {
		mb.w.mailOcc.Add(1)
	} else if old > 0 && n == 0 {
		mb.w.mailOcc.Add(-1)
	}
}

// removeAt drops the message at index i (absolute index into q), keeping
// FIFO order.  Front removals advance head; mid-queue removals shift the
// (typically short) prefix between head and i.
func (mb *mailbox) removeAt(i int) {
	if i == mb.head {
		mb.q[i] = nil
		mb.head++
	} else {
		copy(mb.q[mb.head+1:i+1], mb.q[mb.head:i])
		mb.q[mb.head] = nil
		mb.head++
	}
	// Rewind once the queue drains, so the next post reuses the array
	// instead of appending past a dead prefix; compact once the dead
	// prefix dominates a backlog, bounding memory.
	if mb.head == len(mb.q) {
		mb.q = mb.q[:0]
		mb.head = 0
	} else if mb.head > 1024 && mb.head*2 > len(mb.q) {
		mb.q = append([]*message(nil), mb.q[mb.head:]...)
		mb.head = 0
	}
	mb.setQlen(int32(len(mb.q) - mb.head))
}

func newMailbox(w *World, owner *proc) *mailbox {
	mb := &mailbox{w: w, owner: owner}
	mb.cond = sync.NewCond(&mb.mu)
	w.registerWaker(mb)
	return mb
}

// wakeAll implements waker for abort propagation (goroutine engine).
func (mb *mailbox) wakeAll() {
	mb.mu.Lock()
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// post appends a message and wakes the receiver.  Under the event engine
// the poster is the currently running rank; a receiver parked on a
// specific source that this message satisfies becomes ready, while
// wildcard receivers stay parked until quiescence (see evScheduler).
func (mb *mailbox) post(m *message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.setQlen(int32(len(mb.q) - mb.head))
	if mb.w.eventMode {
		mb.mu.Unlock()
		p := mb.owner
		if p.evState.Load() == evRecv && p.evSrc != AnySource &&
			matches(m, p.evCid, p.evSrc, p.evTag) {
			mb.w.sched.readyProc(p)
		}
		return
	}
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// bestAvail returns the earliest virtual arrival among queued messages a
// wildcard receive for (cid, tag) would match, and its queue index, for
// the scheduler's quiescence check.  The tie-break (lowest source rank)
// matches matchEvent's, so the index identifies exactly the message the
// granted receive will take.
func (mb *mailbox) bestAvail(cid int32, tag int) (float64, int, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	best := mb.scanBest(cid, AnySource, tag)
	if best < 0 {
		return 0, -1, false
	}
	return mb.q[best].avail, best, true
}

// scanBest returns the queue index a receive for (cid, src, tag) matches,
// or -1.  A fully specified receive matches the oldest message from its
// source; a wildcard receive matches the earliest virtual arrival, ties
// to the lowest source rank.  Caller holds mb.mu.
func (mb *mailbox) scanBest(cid int32, src, tag int) int {
	best := -1
	for i := mb.head; i < len(mb.q); i++ {
		m := mb.q[i]
		if !matches(m, cid, src, tag) {
			continue
		}
		if src != AnySource {
			return i
		}
		if best < 0 || m.avail < mb.q[best].avail ||
			(m.avail == mb.q[best].avail && m.src < mb.q[best].src) {
			best = i
		}
	}
	return best
}

// matches reports whether m satisfies a receive for (cid, src, tag).
func matches(m *message, cid int32, src, tag int) bool {
	if m.cid != cid {
		return false
	}
	if src != AnySource && m.src != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}

// take blocks until a matching message is queued, removes and returns it.
// It unwinds with a panic if the world fails while waiting.
//
// Matching semantics: a fully specified receive matches the oldest queued
// message from its source (MPI's non-overtaking rule makes this
// deterministic).  A wildcard (AnySource) receive in Virtual mode matches
// the message with the earliest virtual arrival time (ties to the lowest
// source rank), after a conservative quiescence check: as long as some
// other rank is still computing with a clock behind the candidate's
// arrival, that rank could yet produce an earlier message, so the receiver
// waits for it to advance, block, or finish.  This makes wildcard matching
// follow virtual-arrival order — the discrete-event analogue of real MPI's
// physical arrival order — instead of the racy host scheduling order.  In
// Real mode wildcard receives match in genuine arrival order.
func (mb *mailbox) take(p *proc, cid int32, src, tag int) *message {
	return mb.match(p, cid, src, tag, true)
}

// match implements take and the non-destructive Probe variant: when remove
// is false the chosen message stays queued and a subsequent receive with
// the same arguments is guaranteed to match it (the matching rules are
// deterministic functions of the queue contents).
func (mb *mailbox) match(p *proc, cid int32, src, tag int, remove bool) *message {
	if mb.w.eventMode {
		return mb.matchEvent(p, cid, src, tag, remove)
	}
	virtualWild := src == AnySource && p.ctx.Mode() == vtime.Virtual
	// maxWildcardPolls bounds the quiescence wait (~50ms of real time) so
	// a rank that holds unconsumed messages forever cannot livelock a
	// wildcard receiver; past the bound the best queued candidate is
	// accepted even if the schedule might still have been beaten.
	const maxWildcardPolls = 2500
	polls := 0
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if virtualWild {
			best := -1
			for i := mb.head; i < len(mb.q); i++ {
				m := mb.q[i]
				if !matches(m, cid, src, tag) {
					continue
				}
				if best < 0 || m.avail < mb.q[best].avail ||
					(m.avail == mb.q[best].avail && m.src < mb.q[best].src) {
					best = i
				}
			}
			if best >= 0 {
				m := mb.q[best]
				if polls > maxWildcardPolls || !mb.w.spoilers(p, m.avail) {
					if remove {
						mb.removeAt(best)
					}
					return m
				}
				polls++
				// Quiescence poll: some rank may still beat the
				// candidate.  Count as blocked so mutually waiting
				// wildcard receivers do not spoil each other forever.
				restore := p.blockedSection()
				mb.mu.Unlock()
				time.Sleep(20 * time.Microsecond)
				mb.mu.Lock()
				restore()
				mb.w.checkFailed()
				continue
			}
		} else {
			for i := mb.head; i < len(mb.q); i++ {
				m := mb.q[i]
				if matches(m, cid, src, tag) {
					if remove {
						mb.removeAt(i)
					}
					return m
				}
			}
		}
		mb.w.checkFailed()
		restore := p.blockedSection()
		mb.cond.Wait()
		restore()
	}
}

// matchEvent is match under the event engine.  A specific-source receive
// scans for the oldest message from its source and parks until the
// matching post resumes it.  A wildcard receive parks unconditionally —
// even with candidates queued — and is granted at quiescence
// (evScheduler.quiesce), which substitutes deterministic event-queue
// reasoning for the goroutine engine's spoiler poll loop; the grant
// carries the chosen candidate's queue index (no rank runs between the
// quiescence scan and this take, so the queue is unchanged), which keeps
// a wildcard drain over a deep backlog to one scan per message instead
// of three.  Parking never holds mb.mu: the posting rank needs it.
func (mb *mailbox) matchEvent(p *proc, cid int32, src, tag int, remove bool) *message {
	wild := src == AnySource
	for {
		mb.mu.Lock()
		best := -1
		if wild {
			if p.evGrant {
				if i := p.evGrantIdx; i >= mb.head && i < len(mb.q) && matches(mb.q[i], cid, src, tag) {
					best = i
				} else {
					// The granted index should always validate; rescanning
					// keeps a broken invariant deterministic, not silent.
					best = mb.scanBest(cid, src, tag)
				}
			}
		} else {
			best = mb.scanBest(cid, src, tag)
		}
		if best >= 0 {
			p.evGrant = false
			m := mb.q[best]
			if remove {
				mb.removeAt(best)
			}
			mb.mu.Unlock()
			return m
		}
		mb.mu.Unlock()
		p.evCid, p.evSrc, p.evTag = cid, src, tag
		p.park(evRecv)
	}
}

// sendMode distinguishes the point-to-point send flavors.
type sendMode uint8

const (
	sendStandard sendMode = iota // eager below threshold, rendezvous above
	sendSync                     // always rendezvous (MPI_Ssend)
	sendBuffered                 // always eager (MPI_Bsend)
)

func (c *Comm) checkPeer(rank int, what string) {
	if rank < 0 || rank >= c.Size() {
		panic(fmt.Sprintf("mpi: %s rank %d outside communicator of size %d", what, rank, c.Size()))
	}
}

func (c *Comm) checkBuf(b *Buf, what string) {
	if b == nil || b.Data == nil {
		panic(fmt.Sprintf("mpi: %s with nil or freed buffer", what))
	}
}

// postSend builds and delivers the message for a send entered at time
// `enter`, returning it.  The caller handles rendezvous completion.
func (c *Comm) postSend(buf *Buf, dest, tag int, mode sendMode, enter float64, flags uint8) *message {
	c.checkPeer(dest, "send to")
	c.checkBuf(buf, "send")
	if tag < 0 {
		panic(fmt.Sprintf("mpi: send with negative tag %d", tag))
	}
	w := c.p.w
	bytes := buf.Bytes()
	isSync := mode == sendSync || (mode == sendStandard && bytes > w.opt.Cost.EagerThreshold)
	// The payload copy comes from the free list (no zeroing: copy
	// overwrites every byte) and is recycled by completeRecv once the
	// receiver has copied it out.
	payload, slab := getBytes(bytes, false)
	copy(payload, buf.Data)
	m := &message{
		cid:       c.core.cid,
		src:       c.myRank,
		tag:       tag,
		dtype:     buf.Type,
		count:     buf.Count,
		data:      payload,
		slab:      slab,
		sendEnter: enter,
		sync:      isSync,
		match:     matchID(c.p),
	}
	if isSync {
		if !w.eventMode {
			m.ack = make(chan float64, 1)
		}
		flags |= trace.FlagSync
	}
	if c.p.ctx.Mode() == vtime.Virtual {
		if w.opt.Perturb != nil {
			// Jitter is keyed by the sender's per-destination message
			// sequence, which program order makes deterministic; it is
			// drawn once here and reused by the rendezvous completion so
			// both protocols see the same wire.
			wdst := c.worldRankOf(dest)
			seq := c.p.sendSeq[wdst]
			c.p.sendSeq[wdst]++
			m.jitter = w.opt.Perturb.MessageJitter(c.p.rank, wdst, seq)
		}
		m.avail = enter + w.opt.Cost.transfer(bytes) + m.jitter
	}
	c.p.ctx.Record(trace.Event{
		Time: enter, Kind: trace.KindSend,
		Peer: int32(dest), CRank: int32(c.myRank), Tag: int32(tag),
		Bytes: int64(bytes), Match: m.match, Comm: c.core.cid,
		Flags: flags,
	})
	w.procs[c.worldRankOf(dest)].mb.post(m)
	return m
}

// waitAck blocks a rendezvous sender until the receiver acknowledges, then
// advances the virtual clock to the transfer end.  Under the event engine
// the sender parks and the receiver's completeRecv readies it; the
// Isend/Wait split means the ack may already have been delivered by the
// time the sender waits, in which case there is nothing to park on.
func (c *Comm) waitAck(m *message) {
	w := c.p.w
	if w.eventMode {
		if !m.acked {
			m.waiter = c.p
			c.p.park(evAck)
			m.waiter = nil
		}
		c.p.ctx.Clock.AdvanceTo(m.ackEnd + w.opt.Cost.Overhead)
		return
	}
	restore := c.p.blockedSection()
	defer restore()
	select {
	case end := <-m.ack:
		if c.p.ctx.Mode() == vtime.Virtual {
			c.p.ctx.Clock.AdvanceTo(end + w.opt.Cost.Overhead)
		}
	case <-w.failCh:
		w.checkFailed()
	}
}

// Send is the standard blocking send (MPI_Send): eager (buffered) up to the
// cost model's EagerThreshold, rendezvous above it.
func (c *Comm) Send(buf *Buf, dest, tag int) {
	ctx := c.p.ctx
	ctx.Enter("MPI_Send")
	enter := ctx.Now()
	m := c.postSend(buf, dest, tag, sendStandard, enter, 0)
	if m.sync {
		c.waitAck(m)
	} else if ctx.Mode() == vtime.Virtual {
		ctx.Clock.Advance(c.p.w.opt.Cost.Overhead)
	}
	ctx.Exit()
}

// Ssend is the synchronous blocking send (MPI_Ssend): it always completes
// only after the matching receive is posted — the protocol under which the
// "late receiver" property manifests.
func (c *Comm) Ssend(buf *Buf, dest, tag int) {
	ctx := c.p.ctx
	ctx.Enter("MPI_Ssend")
	enter := ctx.Now()
	m := c.postSend(buf, dest, tag, sendSync, enter, 0)
	c.waitAck(m)
	ctx.Exit()
}

// completeRecv copies payload, computes receive completion time, records
// the trace event and returns the status.  enter is the time waiting began
// (for the Aux field / late-sender analysis); flags annotate the event.
func (c *Comm) completeRecv(buf *Buf, m *message, enter float64, flags uint8) Status {
	if m.count > buf.Count {
		panic(fmt.Sprintf("mpi: message truncated: %d elements into buffer of %d", m.count, buf.Count))
	}
	if m.dtype != buf.Type {
		panic(fmt.Sprintf("mpi: datatype mismatch: sent %v, receiving into %v", m.dtype, buf.Type))
	}
	copy(buf.Data, m.data)
	// The message is off the queue for good (Probe never reaches here);
	// its payload can carry the next send.
	putBytes(m.data, m.slab)
	m.data, m.slab = nil, nil
	ctx := c.p.ctx
	w := c.p.w
	bytes := m.count * m.dtype.Size()
	if m.sync {
		var end float64
		if ctx.Mode() == vtime.Virtual {
			start := m.sendEnter
			if enter > start {
				start = enter
			}
			end = start + w.opt.Cost.transfer(bytes) + m.jitter
		}
		if w.eventMode {
			m.ackEnd = end
			m.acked = true
			if m.waiter != nil {
				w.sched.readyProc(m.waiter)
			}
		} else {
			m.ack <- end
		}
		if ctx.Mode() == vtime.Virtual {
			ctx.Clock.AdvanceTo(end + w.opt.Cost.Overhead)
		}
		flags |= trace.FlagSync
	} else if ctx.Mode() == vtime.Virtual {
		end := m.avail
		if enter > end {
			end = enter
		}
		ctx.Clock.AdvanceTo(end + w.opt.Cost.Overhead)
	}
	ctx.Record(trace.Event{
		Time: ctx.Now(), Aux: enter, Kind: trace.KindRecv,
		Peer: int32(m.src), CRank: int32(c.myRank), Tag: int32(m.tag),
		Bytes: int64(bytes), Match: m.match, Comm: c.core.cid,
		Flags: flags,
	})
	return Status{Source: m.src, Tag: m.tag, Count: m.count}
}

// Recv is the blocking receive (MPI_Recv).  source may be AnySource and tag
// may be AnyTag.
func (c *Comm) Recv(buf *Buf, source, tag int) Status {
	if source != AnySource {
		c.checkPeer(source, "receive from")
	}
	c.checkBuf(buf, "receive")
	ctx := c.p.ctx
	ctx.Enter("MPI_Recv")
	enter := ctx.Now()
	m := c.p.mb.take(c.p, c.core.cid, source, tag)
	st := c.completeRecv(buf, m, enter, 0)
	ctx.Exit()
	return st
}

// reqKind distinguishes request flavors.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a non-blocking operation handle (MPI_Request).  Complete it
// with Comm.Wait or Comm.WaitAll.
type Request struct {
	kind   reqKind
	c      *Comm
	msg    *message // send requests
	buf    *Buf     // receive requests
	src    int
	tag    int
	done   bool
	status Status
}

// Isend starts a non-blocking standard send (MPI_Isend).  The message is
// posted immediately; for rendezvous-sized messages completion (in Wait)
// blocks until the receive is posted.
func (c *Comm) Isend(buf *Buf, dest, tag int) *Request {
	ctx := c.p.ctx
	ctx.Enter("MPI_Isend")
	enter := ctx.Now()
	m := c.postSend(buf, dest, tag, sendStandard, enter, trace.FlagNonBlocking)
	if ctx.Mode() == vtime.Virtual {
		ctx.Clock.Advance(c.p.w.opt.Cost.Overhead)
	}
	ctx.Exit()
	return &Request{kind: reqSend, c: c, msg: m}
}

// Irecv starts a non-blocking receive (MPI_Irecv).  This reproduction
// performs the actual matching when the request is completed (Wait), which
// preserves blocking behaviour and trace shape for the ATS patterns; it
// deviates from real MPI in that the receive is not pre-posted for
// matching purposes.  The deviation is documented in DESIGN.md.
func (c *Comm) Irecv(buf *Buf, source, tag int) *Request {
	if source != AnySource {
		c.checkPeer(source, "receive from")
	}
	c.checkBuf(buf, "receive")
	ctx := c.p.ctx
	ctx.Enter("MPI_Irecv")
	if ctx.Mode() == vtime.Virtual {
		ctx.Clock.Advance(c.p.w.opt.Cost.Overhead)
	}
	ctx.Exit()
	return &Request{kind: reqRecv, c: c, buf: buf, src: source, tag: tag}
}

// Wait blocks until the request completes (MPI_Wait) and returns its
// status (meaningful for receives).
func (c *Comm) Wait(r *Request) Status {
	if r == nil {
		panic("mpi: Wait on nil request")
	}
	if r.c != c {
		panic("mpi: Wait on request from a different communicator handle")
	}
	if r.done {
		return r.status
	}
	ctx := c.p.ctx
	ctx.Enter("MPI_Wait")
	switch r.kind {
	case reqSend:
		if r.msg.sync {
			c.waitAck(r.msg)
		}
	case reqRecv:
		enter := ctx.Now()
		m := c.p.mb.take(c.p, c.core.cid, r.src, r.tag)
		r.status = c.completeRecv(r.buf, m, enter, trace.FlagNonBlocking)
	}
	r.done = true
	ctx.Exit()
	return r.status
}

// WaitAll completes all requests in order (MPI_Waitall).
func (c *Comm) WaitAll(rs ...*Request) []Status {
	out := make([]Status, len(rs))
	for i, r := range rs {
		out[i] = c.Wait(r)
	}
	return out
}

// Bsend is the buffered send (MPI_Bsend): it always completes eagerly,
// independent of the message size, as if an unlimited attach buffer were
// available.
func (c *Comm) Bsend(buf *Buf, dest, tag int) {
	ctx := c.p.ctx
	ctx.Enter("MPI_Bsend")
	enter := ctx.Now()
	c.postSend(buf, dest, tag, sendBuffered, enter, 0)
	if ctx.Mode() == vtime.Virtual {
		ctx.Clock.Advance(c.p.w.opt.Cost.Overhead)
	}
	ctx.Exit()
}

// Probe blocks until a matching message is available and returns its
// status without receiving it (MPI_Probe).  The matching rules are those
// of Recv, so a following Recv with the same arguments receives exactly
// the probed message.
func (c *Comm) Probe(source, tag int) Status {
	if source != AnySource {
		c.checkPeer(source, "probe")
	}
	ctx := c.p.ctx
	ctx.Enter("MPI_Probe")
	m := c.p.mb.match(c.p, c.core.cid, source, tag, false)
	if ctx.Mode() == vtime.Virtual {
		// The probe completes when the message is available.
		end := m.avail
		if enter := ctx.Now(); enter > end {
			end = enter
		}
		ctx.Clock.AdvanceTo(end + c.p.w.opt.Cost.Overhead)
	}
	ctx.Exit()
	return Status{Source: m.src, Tag: m.tag, Count: m.count}
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv), safe
// against the cyclic-dependency deadlocks plain Send/Recv pairs can
// produce under the rendezvous protocol.
func (c *Comm) Sendrecv(sbuf *Buf, dest, stag int, rbuf *Buf, source, rtag int) Status {
	ctx := c.p.ctx
	ctx.Enter("MPI_Sendrecv")
	enter := ctx.Now()
	m := c.postSend(sbuf, dest, stag, sendStandard, enter, 0)
	if source != AnySource {
		c.checkPeer(source, "receive from")
	}
	c.checkBuf(rbuf, "receive")
	in := c.p.mb.take(c.p, c.core.cid, source, rtag)
	st := c.completeRecv(rbuf, in, enter, 0)
	if m.sync {
		c.waitAck(m)
	} else if ctx.Mode() == vtime.Virtual {
		ctx.Clock.Advance(c.p.w.opt.Cost.Overhead)
	}
	ctx.Exit()
	return st
}
