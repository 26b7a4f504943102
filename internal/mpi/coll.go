package mpi

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// collSplit is the internal pseudo-collective kind used by Comm.Split/Dup.
const collSplit trace.CollKind = 255

// collArgs carries one participant's contribution to a collective.
type collArgs struct {
	kind      trace.CollKind
	root      int // comm-local root; -1 for unrooted operations
	op        Op
	sendData  []byte // the caller's send buffer, read in place (see compute)
	recv      []byte // the caller's receive payload (gathers write it directly)
	sendType  Datatype
	sendCount int   // per-destination element count (regular ops)
	counts    []int // per-rank counts (v-variants, reduce_scatter)
	color     int   // split
	key       int   // split
}

// collResult is one participant's outcome.  Its output payload has
// already been copied into the receive buffer passed to join.
type collResult struct {
	exit    float64 // virtual completion time (ignored in real mode)
	n       int     // length of the output payload (0 if none)
	id      uint64  // collective instance id (trace match id)
	newCore *commCore
}

// collOp accumulates one collective instance across the communicator.
type collOp struct {
	kind    trace.CollKind
	id      uint64
	seq     uint64 // per-communicator sequence (deterministic identity)
	size    int
	arrived int
	taken   int
	done    bool
	err     error

	enter  []float64
	args   []collArgs
	joined []bool // double-join check

	exits []float64
	out   [][]byte // per-participant output; entries may share or alias slabs
	// delivered is the payload length a gather wrote straight into the
	// receive buffers instead of an output.
	delivered int
	cores     []*commCore
	// slabs[:nslab] hold this instance's outputs (see alloc); the rest
	// are kept from earlier instances of the engine for reuse.
	slabs [][]byte
	nslab int

	// waiters are the participants parked under the event engine; the
	// last arriver readies them after computing the operation.
	waiters []*proc
}

// collID derives the deterministic trace match id of a collective
// instance from the communicator and its per-communicator sequence.  A
// pure function of the program — identical across engines and host
// schedules — unlike the racy global counter it replaced.
func collID(cid int32, seq uint64) uint64 {
	return uint64(uint32(cid))<<32 | (seq+1)&0xffffffff
}

// collEngine synchronizes the members of one communicator through their
// collective calls.  MPI requires all members to call collectives in the
// same order; the per-communicator sequence number plus the kind check
// enforce exactly that and turn order violations into run failures.
type collEngine struct {
	mu   sync.Mutex
	cond *sync.Cond
	w    *World
	ops  map[uint64]*collOp
	// spare is the last fully taken op, reset for the next instance: a
	// communicator's collectives run in sequence, so one op, its
	// per-participant slices and its output slabs serve them all.
	spare *collOp
}

func newCollEngine(w *World) *collEngine {
	e := &collEngine{w: w, ops: make(map[uint64]*collOp)}
	e.cond = sync.NewCond(&e.mu)
	w.registerWaker(e)
	return e
}

// wakeAll implements waker.
func (e *collEngine) wakeAll() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// abort releases the lock, fails the world and unwinds the caller.
func (e *collEngine) abort(err error) {
	e.mu.Unlock()
	e.w.fail(err)
	panic(abortError{cause: err})
}

// join is called by each participant; it blocks until the operation
// completes, copies the participant's output payload into recv, and
// returns the participant's result.  The copy happens under the engine
// lock, so when the last participant has taken its result no output is
// read any more and the op's slabs can serve the next instance.
func (e *collEngine) join(c *Comm, seq uint64, enter float64, args collArgs, recv []byte) collResult {
	me := c.myRank
	size := c.Size()
	e.mu.Lock()

	op := e.ops[seq]
	if op == nil {
		op = e.newOp(size)
		op.kind, op.id, op.seq = args.kind, collID(c.core.cid, seq), seq
		e.ops[seq] = op
	}
	if op.kind != args.kind {
		err := fmt.Errorf("mpi: collective mismatch on comm %d seq %d: rank %d called %v, others called %v",
			c.core.cid, seq, me, args.kind, op.kind)
		e.abort(err) // does not return
	}
	if op.joined[me] {
		err := fmt.Errorf("mpi: rank %d joined collective seq %d twice", me, seq)
		e.abort(err)
	}
	op.joined[me] = true
	args.recv = recv
	op.args[me] = args
	op.enter[me] = enter
	op.arrived++

	if op.arrived == op.size {
		// compute reads the send buffers in place; once the world has
		// failed, a participant may have unwound out of join and reuse
		// its buffer, so a failed world computes nothing.
		if e.w.failed.Load() {
			e.mu.Unlock()
			e.w.checkFailed()
		}
		if err := e.compute(c.core, op); err != nil {
			op.err = err
			op.done = true
			e.cond.Broadcast()
			e.abort(err)
		}
		op.done = true
		if e.w.eventMode {
			// The last arriver is the running rank; the parked
			// participants become ready at their own (already advanced)
			// clocks and pick up their results when dispatched.
			for _, q := range op.waiters {
				e.w.sched.readyProc(q)
			}
			clear(op.waiters)
			op.waiters = op.waiters[:0]
		} else {
			e.cond.Broadcast()
		}
	} else if e.w.eventMode {
		op.waiters = append(op.waiters, c.p)
		e.mu.Unlock()
		c.p.park(evColl)
		e.mu.Lock()
	} else {
		restore := c.p.blockedSection()
		for !op.done {
			if e.w.failed.Load() {
				e.mu.Unlock()
				e.w.checkFailed()
			}
			e.cond.Wait()
		}
		restore()
	}
	if op.err != nil {
		e.mu.Unlock()
		panic(abortError{cause: op.err})
	}
	res := collResult{exit: op.exits[me], id: op.id, n: op.delivered}
	if out := op.out[me]; out != nil {
		res.n = len(out)
		copy(recv, out)
	}
	if op.cores != nil {
		res.newCore = op.cores[me]
	}
	op.taken++
	if op.taken == op.size {
		delete(e.ops, seq)
		e.recycle(op)
	}
	e.mu.Unlock()
	return res
}

// newOp returns an empty op for a size-member instance: the engine's
// spare when there is one, else a fresh one.
func (e *collEngine) newOp(size int) *collOp {
	if op := e.spare; op != nil && op.size == size {
		e.spare = nil
		return op
	}
	op := &collOp{
		size:   size,
		enter:  make([]float64, size),
		args:   make([]collArgs, size),
		joined: make([]bool, size),
		exits:  make([]float64, size),
		out:    make([][]byte, size),
	}
	if e.w.eventMode {
		op.waiters = make([]*proc, 0, size-1)
	}
	return op
}

// recycle keeps a fully taken op, reset, as the engine's spare.  Every
// participant has copied its output out (in join), so its slabs are free
// for the next instance's outputs.
func (e *collEngine) recycle(op *collOp) {
	clear(op.args)
	clear(op.joined)
	clear(op.out)
	op.delivered, op.nslab = 0, 0
	op.cores, op.err = nil, nil
	op.arrived, op.taken, op.done = 0, 0, false
	e.spare = op
}

// alloc returns an n-byte output buffer with stale contents: the next
// slab kept from an earlier instance when it is large enough, else a
// fresh one.  The slabs live as long as the communicator, not in the
// process-wide byte pool: a slab parked in a sync.Pool counts as live
// heap until the next GC, and per-communicator reuse already serves a
// property's repeated collectives.
func (op *collOp) alloc(n int) []byte {
	if op.nslab < len(op.slabs) && cap(op.slabs[op.nslab]) >= n {
		b := op.slabs[op.nslab][:n]
		op.nslab++
		return b
	}
	b := make([]byte, n)
	if op.nslab < len(op.slabs) {
		op.slabs[op.nslab] = b
	} else {
		op.slabs = append(op.slabs, b)
	}
	op.nslab++
	return b
}

// copyOf returns a copy of b in an output slab (see alloc).
func (op *collOp) copyOf(b []byte) []byte {
	c := op.alloc(len(b))
	copy(c, b)
	return c
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// gatherInto writes every rank's send buffer, in rank order, into dst
// (as much as fits) and returns their total length.
func (op *collOp) gatherInto(dst []byte) int {
	total := 0
	for i := range op.args {
		if total < len(dst) {
			copy(dst[total:], op.args[i].sendData)
		}
		total += len(op.args[i].sendData)
	}
	return total
}

// compute fills exits/out/cores once all participants have arrived.  It
// runs under the engine lock and reads the participants' send buffers in
// place: every participant is blocked in join until compute is done, and
// MPI leaves a send buffer to the call until the call returns.  Gathers
// write the concatenation straight into the receive buffers, which MPI
// requires not to overlap a send buffer of the call (and which a Buf
// cannot be in place of: it holds Size() contributions).  Every other
// collective computes into outputs that never alias a send buffer, so
// a receive buffer may be its send buffer; outputs are only read (join
// copies them out), so participants receiving the same bytes share one
// slice and sub-ranges alias one output.
func (e *collEngine) compute(core *commCore, op *collOp) error {
	P := op.size
	cost := e.w.opt.Cost
	maxE := maxOf(op.enter)

	// sameCounts verifies a uniform element count and type across ranks.
	sameCounts := func() (Datatype, int, error) {
		t, n := op.args[0].sendType, op.args[0].sendCount
		for i := 1; i < P; i++ {
			if op.args[i].sendType != t || op.args[i].sendCount != n {
				return 0, 0, fmt.Errorf("mpi: %v: rank %d contributed %d×%v, rank 0 contributed %d×%v",
					op.kind, i, op.args[i].sendCount, op.args[i].sendType, n, t)
			}
		}
		return t, n, nil
	}
	sameRoot := func() (int, error) {
		r := op.args[0].root
		for i := 1; i < P; i++ {
			if op.args[i].root != r {
				return 0, fmt.Errorf("mpi: %v: inconsistent roots %d and %d", op.kind, r, op.args[i].root)
			}
		}
		if r < 0 || r >= P {
			return 0, fmt.Errorf("mpi: %v: root %d outside communicator of size %d", op.kind, r, P)
		}
		return r, nil
	}

	switch op.kind {
	case trace.CollBarrier:
		x := maxE + cost.barrierNet(P) + cost.Overhead
		for i := range op.exits {
			op.exits[i] = x
		}

	case trace.CollBcast:
		root, err := sameRoot()
		if err != nil {
			return err
		}
		t, n, err := sameCounts()
		if err != nil {
			return err
		}
		bytes := n * t.Size()
		data := op.args[root].sendData
		if len(data) != bytes {
			return fmt.Errorf("mpi: Bcast root buffer holds %d bytes, expected %d", len(data), bytes)
		}
		net := cost.collNet(P, bytes)
		avail := op.enter[root] + net
		data = op.copyOf(data)
		for i := 0; i < P; i++ {
			op.out[i] = data
			if i == root {
				op.exits[i] = op.enter[root] + net + cost.Overhead
			} else {
				x := op.enter[i]
				if avail > x {
					x = avail
				}
				op.exits[i] = x + cost.Overhead
			}
		}

	case trace.CollScatter, trace.CollScatterv:
		root, err := sameRoot()
		if err != nil {
			return err
		}
		t, _, err := sameCounts()
		if err != nil {
			return err
		}
		counts := make([]int, P)
		if op.kind == trace.CollScatter {
			for i := range counts {
				counts[i] = op.args[0].sendCount
			}
		} else {
			counts = op.args[root].counts
			if len(counts) != P {
				return fmt.Errorf("mpi: Scatterv root supplied %d counts for %d ranks", len(counts), P)
			}
		}
		var total int
		for _, n := range counts {
			total += n
		}
		data := op.args[root].sendData
		if len(data) != total*t.Size() {
			return fmt.Errorf("mpi: %v root buffer holds %d bytes, expected %d", op.kind, len(data), total*t.Size())
		}
		data = op.copyOf(data)
		off := 0
		for i := 0; i < P; i++ {
			nb := counts[i] * t.Size()
			op.out[i] = data[off : off+nb]
			off += nb
			net := cost.collNet(P, nb)
			if i == root {
				op.exits[i] = op.enter[root] + net + cost.Overhead
			} else {
				avail := op.enter[root] + net
				x := op.enter[i]
				if avail > x {
					x = avail
				}
				op.exits[i] = x + cost.Overhead
			}
		}

	case trace.CollGather, trace.CollGatherv, trace.CollReduce:
		root, err := sameRoot()
		if err != nil {
			return err
		}
		t, n, err := sameCounts()
		if err != nil {
			return err
		}
		var rootBytes int
		if op.kind == trace.CollReduce {
			rootBytes = n * t.Size()
			rootData := op.copyOf(op.args[0].sendData) // accumulates the result
			for i := 1; i < P; i++ {
				if err := reduceInto(rootData, op.args[i].sendData, t, op.args[root].op, n); err != nil {
					return err
				}
			}
			op.out[root] = rootData
		} else {
			rootBytes = op.gatherInto(op.args[root].recv)
			op.delivered = rootBytes
		}
		for i := 0; i < P; i++ {
			if i == root {
				op.exits[i] = maxE + cost.collNet(P, rootBytes) + cost.Overhead
			} else {
				op.exits[i] = op.enter[i] + cost.transfer(len(op.args[i].sendData)) + cost.Overhead
			}
		}

	case trace.CollAllreduce, trace.CollAllgather, trace.CollAllgatherv,
		trace.CollAlltoall, trace.CollAlltoallv, trace.CollReduceScatter:
		t, n, err := sameCounts()
		if err != nil {
			return err
		}
		es := t.Size()
		switch op.kind {
		case trace.CollAllreduce:
			acc := op.copyOf(op.args[0].sendData)
			for i := 1; i < P; i++ {
				if err := reduceInto(acc, op.args[i].sendData, t, op.args[0].op, n); err != nil {
					return err
				}
			}
			for i := range op.out {
				op.out[i] = acc
			}
		case trace.CollAllgather, trace.CollAllgatherv:
			for i := range op.args {
				op.delivered = op.gatherInto(op.args[i].recv)
			}
		case trace.CollAlltoall:
			// Rank i receives segment i of every rank's send buffer.
			seg := n * es
			for i := 0; i < P; i++ {
				if len(op.args[i].sendData) != P*seg {
					return fmt.Errorf("mpi: Alltoall rank %d buffer holds %d bytes, expected %d",
						i, len(op.args[i].sendData), P*seg)
				}
			}
			for i := 0; i < P; i++ {
				buf := op.alloc(P * seg)
				for j := 0; j < P; j++ {
					copy(buf[j*seg:], op.args[j].sendData[i*seg:(i+1)*seg])
				}
				op.out[i] = buf
			}
		case trace.CollAlltoallv:
			// args[j].counts[i] elements travel j→i; receiver layout is
			// sender-rank order.
			for j := 0; j < P; j++ {
				if len(op.args[j].counts) != P {
					return fmt.Errorf("mpi: Alltoallv rank %d supplied %d counts for %d ranks",
						j, len(op.args[j].counts), P)
				}
			}
			for i := 0; i < P; i++ {
				total := 0
				for j := 0; j < P; j++ {
					total += op.args[j].counts[i] * es
				}
				buf := op.alloc(total)[:0]
				for j := 0; j < P; j++ {
					off := 0
					for k := 0; k < i; k++ {
						off += op.args[j].counts[k] * es
					}
					nb := op.args[j].counts[i] * es
					if off+nb > len(op.args[j].sendData) {
						return fmt.Errorf("mpi: Alltoallv rank %d send buffer too small", j)
					}
					buf = append(buf, op.args[j].sendData[off:off+nb]...)
				}
				op.out[i] = buf
			}
		case trace.CollReduceScatter:
			counts := op.args[0].counts
			if len(counts) != P {
				return fmt.Errorf("mpi: Reduce_scatter needs %d counts, got %d", P, len(counts))
			}
			var total int
			for _, cnt := range counts {
				total += cnt
			}
			if total != n {
				return fmt.Errorf("mpi: Reduce_scatter counts sum to %d, buffers hold %d", total, n)
			}
			acc := op.copyOf(op.args[0].sendData)
			for i := 1; i < P; i++ {
				if err := reduceInto(acc, op.args[i].sendData, t, op.args[0].op, n); err != nil {
					return err
				}
			}
			off := 0
			for i := 0; i < P; i++ {
				nb := counts[i] * es
				op.out[i] = acc[off : off+nb]
				off += nb
			}
		}
		x := maxE + cost.collNet(P, n*es) + cost.Overhead
		for i := range op.exits {
			op.exits[i] = x
		}

	case trace.CollScan:
		t, n, err := sameCounts()
		if err != nil {
			return err
		}
		acc := op.copyOf(op.args[0].sendData) // accumulates the prefixes
		op.out[0] = op.copyOf(acc)
		prefixMax := op.enter[0]
		op.exits[0] = prefixMax + cost.transfer(n*t.Size()) + cost.Overhead
		for i := 1; i < P; i++ {
			if err := reduceInto(acc, op.args[i].sendData, t, op.args[0].op, n); err != nil {
				return err
			}
			op.out[i] = op.copyOf(acc)
			if op.enter[i] > prefixMax {
				prefixMax = op.enter[i]
			}
			op.exits[i] = prefixMax + cost.collNet(i+1, n*t.Size()) + cost.Overhead
		}

	case collSplit:
		op.cores = make([]*commCore, P)
		type member struct{ color, key, rank int }
		var ms []member
		for i := 0; i < P; i++ {
			ms = append(ms, member{op.args[i].color, op.args[i].key, i})
		}
		sort.Slice(ms, func(a, b int) bool {
			if ms[a].color != ms[b].color {
				return ms[a].color < ms[b].color
			}
			if ms[a].key != ms[b].key {
				return ms[a].key < ms[b].key
			}
			return ms[a].rank < ms[b].rank
		})
		for i := 0; i < len(ms); {
			j := i
			for j < len(ms) && ms[j].color == ms[i].color {
				j++
			}
			if ms[i].color != Undefined {
				nc := &commCore{
					w:      e.w,
					cid:    e.w.commCounter.Add(1) - 1,
					engine: newCollEngine(e.w),
				}
				for _, m := range ms[i:j] {
					nc.ranks = append(nc.ranks, core.ranks[m.rank])
					op.cores[m.rank] = nc
				}
			}
			i = j
		}
		x := maxE + cost.barrierNet(P) + cost.Overhead
		for i := range op.exits {
			op.exits[i] = x
		}

	default:
		return fmt.Errorf("mpi: unknown collective kind %v", op.kind)
	}
	if pm := e.w.opt.Perturb; pm != nil && e.w.opt.Mode == vtime.Virtual {
		// Perturbation: each participant leaves the collective a little
		// later, keyed by the operation's deterministic (communicator,
		// sequence) identity — the virtual-time analogue of per-rank
		// completion jitter on a real interconnect.
		for i := range op.exits {
			op.exits[i] += pm.CollJitter(core.cid, op.seq, i)
		}
	}
	return nil
}

// runColl drives one collective call on this communicator: engine join
// (which copies the output payload into recv), virtual clock update, and
// (for split) construction of the new handle.
func (c *Comm) runColl(args collArgs, recv []byte) collResult {
	enter := c.p.ctx.Now()
	seq := c.collSeq
	c.collSeq++
	res := c.core.engine.join(c, seq, enter, args, recv)
	if c.p.ctx.Mode() == vtime.Virtual {
		c.p.ctx.Clock.AdvanceTo(res.exit)
	}
	return res
}

// rootRecv is the receive payload of a rooted collective whose receive
// buffer is significant only at the root (nil elsewhere, or when freed).
func rootRecv(isRoot bool, b *Buf) []byte {
	if !isRoot || b == nil {
		return nil
	}
	return b.Data
}

// recordColl emits the KindColl trace event for a completed collective.
func (c *Comm) recordColl(kind trace.CollKind, root int, bytes int, id uint64, enter float64) {
	flags := uint8(0)
	if root == c.myRank {
		flags |= trace.FlagRoot
	}
	c.p.ctx.Record(trace.Event{
		Time: c.p.ctx.Now(), Aux: enter, Kind: trace.KindColl,
		Coll: kind, Root: int32(root), CRank: int32(c.myRank),
		Comm: c.core.cid, Parts: int32(c.Size()), Bytes: int64(bytes), Match: id, Flags: flags,
	})
}

// syncCollective runs an untraced barrier (used by MPI_Finalize).
func (c *Comm) syncCollective(kind trace.CollKind, _ bool) {
	c.runColl(collArgs{kind: kind, root: -1}, nil)
}

// Barrier blocks until all members arrive (MPI_Barrier).
func (c *Comm) Barrier() {
	ctx := c.p.ctx
	ctx.Enter("MPI_Barrier")
	enter := ctx.Now()
	res := c.runColl(collArgs{kind: trace.CollBarrier, root: -1}, nil)
	c.recordColl(trace.CollBarrier, -1, 0, res.id, enter)
	ctx.Exit()
}

// Bcast broadcasts the root's buffer to all members (MPI_Bcast).
func (c *Comm) Bcast(buf *Buf, root int) {
	c.checkBuf(buf, "Bcast")
	ctx := c.p.ctx
	ctx.Enter("MPI_Bcast")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollBcast, root: root,
		sendType: buf.Type, sendCount: buf.Count}
	if c.myRank == root {
		args.sendData = buf.Data
	}
	res := c.runColl(args, buf.Data)
	c.recordColl(trace.CollBcast, root, buf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Scatter distributes equal slices of the root's send buffer
// (MPI_Scatter).  sbuf is significant only at the root and must hold
// Size()×rbuf.Count elements.
func (c *Comm) Scatter(sbuf, rbuf *Buf, root int) {
	c.checkBuf(rbuf, "Scatter")
	ctx := c.p.ctx
	ctx.Enter("MPI_Scatter")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollScatter, root: root,
		sendType: rbuf.Type, sendCount: rbuf.Count}
	if c.myRank == root {
		c.checkBuf(sbuf, "Scatter root")
		args.sendData = sbuf.Data
	}
	res := c.runColl(args, rbuf.Data)
	c.recordColl(trace.CollScatter, root, rbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Scatterv distributes the root's aggregate buffer according to the VBuf's
// distribution (MPI_Scatterv).
func (c *Comm) Scatterv(v *VBuf) {
	ctx := c.p.ctx
	ctx.Enter("MPI_Scatterv")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollScatterv, root: v.Root,
		sendType: v.Buf.Type, sendCount: 0, counts: v.Counts}
	if c.myRank == v.Root {
		args.sendData = v.RootBuf.Data
	}
	res := c.runColl(args, v.Buf.Data)
	c.recordColl(trace.CollScatterv, v.Root, v.Buf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Gather collects equal contributions into the root's receive buffer
// (MPI_Gather).  rbuf is significant only at the root and must hold
// Size()×sbuf.Count elements.
func (c *Comm) Gather(sbuf, rbuf *Buf, root int) {
	c.checkBuf(sbuf, "Gather")
	ctx := c.p.ctx
	ctx.Enter("MPI_Gather")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollGather, root: root,
		sendType: sbuf.Type, sendCount: sbuf.Count,
		sendData: sbuf.Data}
	res := c.runColl(args, rootRecv(c.myRank == root, rbuf))
	if c.myRank == root {
		c.checkBuf(rbuf, "Gather root")
		if res.n > len(rbuf.Data) {
			panic(fmt.Sprintf("mpi: Gather root buffer too small: %d < %d", len(rbuf.Data), res.n))
		}
	}
	c.recordColl(trace.CollGather, root, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Gatherv collects per-rank portions into the root's aggregate buffer
// according to the VBuf's distribution (MPI_Gatherv).
func (c *Comm) Gatherv(v *VBuf) {
	ctx := c.p.ctx
	ctx.Enter("MPI_Gatherv")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollGatherv, root: v.Root,
		sendType: v.Buf.Type, sendCount: 0,
		sendData: v.Buf.Data}
	res := c.runColl(args, rootRecv(c.myRank == v.Root, v.RootBuf))
	c.recordColl(trace.CollGatherv, v.Root, v.Buf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Reduce combines contributions elementwise at the root (MPI_Reduce).
func (c *Comm) Reduce(sbuf, rbuf *Buf, op Op, root int) {
	c.checkBuf(sbuf, "Reduce")
	ctx := c.p.ctx
	ctx.Enter("MPI_Reduce")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollReduce, root: root, op: op,
		sendType: sbuf.Type, sendCount: sbuf.Count,
		sendData: sbuf.Data}
	res := c.runColl(args, rootRecv(c.myRank == root, rbuf))
	if c.myRank == root {
		c.checkBuf(rbuf, "Reduce root")
	}
	c.recordColl(trace.CollReduce, root, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Allreduce combines contributions elementwise on every rank
// (MPI_Allreduce).
func (c *Comm) Allreduce(sbuf, rbuf *Buf, op Op) {
	c.checkBuf(sbuf, "Allreduce")
	c.checkBuf(rbuf, "Allreduce")
	ctx := c.p.ctx
	ctx.Enter("MPI_Allreduce")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollAllreduce, root: -1, op: op,
		sendType: sbuf.Type, sendCount: sbuf.Count,
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	c.recordColl(trace.CollAllreduce, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Allgather concatenates every rank's contribution on every rank
// (MPI_Allgather).  rbuf must hold Size()×sbuf.Count elements.
func (c *Comm) Allgather(sbuf, rbuf *Buf) {
	c.checkBuf(sbuf, "Allgather")
	c.checkBuf(rbuf, "Allgather")
	ctx := c.p.ctx
	ctx.Enter("MPI_Allgather")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollAllgather, root: -1,
		sendType: sbuf.Type, sendCount: sbuf.Count,
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	if res.n > len(rbuf.Data) {
		panic(fmt.Sprintf("mpi: Allgather buffer too small: %d < %d", len(rbuf.Data), res.n))
	}
	c.recordColl(trace.CollAllgather, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Allgatherv concatenates irregular per-rank contributions on every rank
// (MPI_Allgatherv).  counts gives each rank's contribution size (identical
// on all ranks); rbuf must hold their sum.
func (c *Comm) Allgatherv(sbuf, rbuf *Buf, counts []int) {
	c.checkBuf(sbuf, "Allgatherv")
	c.checkBuf(rbuf, "Allgatherv")
	if len(counts) != c.Size() {
		panic(fmt.Sprintf("mpi: Allgatherv needs %d counts, got %d", c.Size(), len(counts)))
	}
	if counts[c.myRank] != sbuf.Count {
		panic(fmt.Sprintf("mpi: Allgatherv rank %d contributes %d elements, counts say %d",
			c.myRank, sbuf.Count, counts[c.myRank]))
	}
	ctx := c.p.ctx
	ctx.Enter("MPI_Allgatherv")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollAllgatherv, root: -1,
		sendType: sbuf.Type, sendCount: 0,
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	if res.n > len(rbuf.Data) {
		panic(fmt.Sprintf("mpi: Allgatherv buffer too small: %d < %d", len(rbuf.Data), res.n))
	}
	c.recordColl(trace.CollAllgatherv, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Alltoall exchanges equal segments between all pairs (MPI_Alltoall).
// Both buffers hold Size()×count elements; count is inferred from the
// buffer sizes.
func (c *Comm) Alltoall(sbuf, rbuf *Buf) {
	c.checkBuf(sbuf, "Alltoall")
	c.checkBuf(rbuf, "Alltoall")
	if sbuf.Count%c.Size() != 0 {
		panic(fmt.Sprintf("mpi: Alltoall buffer count %d not divisible by size %d", sbuf.Count, c.Size()))
	}
	ctx := c.p.ctx
	ctx.Enter("MPI_Alltoall")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollAlltoall, root: -1,
		sendType: sbuf.Type, sendCount: sbuf.Count / c.Size(),
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	c.recordColl(trace.CollAlltoall, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Alltoallv exchanges irregular segments between all pairs (MPI_Alltoallv).
// sendCounts[i] elements of sbuf go to rank i, laid out contiguously in
// rank order; the receive layout is likewise in sender order.
func (c *Comm) Alltoallv(sbuf *Buf, sendCounts []int, rbuf *Buf) {
	c.checkBuf(sbuf, "Alltoallv")
	c.checkBuf(rbuf, "Alltoallv")
	if len(sendCounts) != c.Size() {
		panic(fmt.Sprintf("mpi: Alltoallv needs %d send counts, got %d", c.Size(), len(sendCounts)))
	}
	ctx := c.p.ctx
	ctx.Enter("MPI_Alltoallv")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollAlltoallv, root: -1,
		sendType: sbuf.Type, sendCount: 0,
		counts:   sendCounts,
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	if res.n > len(rbuf.Data) {
		panic(fmt.Sprintf("mpi: Alltoallv receive buffer too small: %d < %d", len(rbuf.Data), res.n))
	}
	c.recordColl(trace.CollAlltoallv, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// Scan computes the inclusive prefix reduction (MPI_Scan): rank i receives
// the reduction of ranks 0..i.
func (c *Comm) Scan(sbuf, rbuf *Buf, op Op) {
	c.checkBuf(sbuf, "Scan")
	c.checkBuf(rbuf, "Scan")
	ctx := c.p.ctx
	ctx.Enter("MPI_Scan")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollScan, root: -1, op: op,
		sendType: sbuf.Type, sendCount: sbuf.Count,
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	c.recordColl(trace.CollScan, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}

// ReduceScatter reduces the full vector and scatters segments of the
// result according to counts (MPI_Reduce_scatter).
func (c *Comm) ReduceScatter(sbuf, rbuf *Buf, counts []int, op Op) {
	c.checkBuf(sbuf, "Reduce_scatter")
	c.checkBuf(rbuf, "Reduce_scatter")
	ctx := c.p.ctx
	ctx.Enter("MPI_Reduce_scatter")
	enter := ctx.Now()
	args := collArgs{kind: trace.CollReduceScatter, root: -1, op: op,
		sendType: sbuf.Type, sendCount: sbuf.Count,
		counts:   counts,
		sendData: sbuf.Data}
	res := c.runColl(args, rbuf.Data)
	c.recordColl(trace.CollReduceScatter, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}
