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
	sendData  []byte
	sendSlab  *[]byte // sendData's free-list box (Allreduce stages from the pool)
	sendType  Datatype
	sendCount int   // per-destination element count (regular ops)
	counts    []int // per-rank counts (v-variants, reduce_scatter)
	color     int   // split
	key       int   // split
}

// collResult is one participant's outcome.
type collResult struct {
	exit float64 // virtual completion time (ignored in real mode)
	// data is the output payload (nil if none).  Participants may share
	// one payload, so it is read-only: callers copy out of it.
	data    []byte
	id      uint64 // collective instance id (trace match id)
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
	out   [][]byte
	cores []*commCore

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
// completes and returns the participant's result.
func (e *collEngine) join(c *Comm, seq uint64, enter float64, args collArgs) collResult {
	me := c.myRank
	size := c.Size()
	e.mu.Lock()

	op := e.ops[seq]
	if op == nil {
		op = &collOp{
			kind:   args.kind,
			id:     collID(c.core.cid, seq),
			seq:    seq,
			size:   size,
			enter:  make([]float64, size),
			args:   make([]collArgs, size),
			joined: make([]bool, size),
		}
		if e.w.eventMode {
			op.waiters = make([]*proc, 0, size-1)
		}
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
	op.args[me] = args
	op.enter[me] = enter
	op.arrived++

	if op.arrived == op.size {
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
			op.waiters = nil
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
	res := collResult{exit: op.exits[me], id: op.id}
	if op.out != nil {
		res.data = op.out[me]
	}
	if op.cores != nil {
		res.newCore = op.cores[me]
	}
	op.taken++
	if op.taken == op.size {
		delete(e.ops, seq)
	}
	e.mu.Unlock()
	return res
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

// gatherSends concatenates every rank's send buffer in rank order into one
// buffer allocated at its total size; nil when every buffer is empty.
func (op *collOp) gatherSends() []byte {
	total := 0
	for i := range op.args {
		total += len(op.args[i].sendData)
	}
	if total == 0 {
		return nil
	}
	all := make([]byte, 0, total)
	for i := range op.args {
		all = append(all, op.args[i].sendData...)
	}
	return all
}

// compute fills exits/out/cores once all participants have arrived.  It
// runs under the engine lock; all inputs are staged copies, so no rank's
// memory is touched concurrently.  Outputs are read-only (see
// collResult.data), so participants receiving the same bytes share one
// slice and sub-ranges alias the staged inputs instead of copying them.
func (e *collEngine) compute(core *commCore, op *collOp) error {
	P := op.size
	cost := e.w.opt.Cost
	op.exits = make([]float64, P)
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
		op.out = make([][]byte, P)
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
		op.out = make([][]byte, P)
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
		var rootData []byte
		var rootBytes int
		if op.kind == trace.CollReduce {
			rootBytes = n * t.Size()
			rootData = append([]byte(nil), op.args[0].sendData...)
			for i := 1; i < P; i++ {
				if err := reduceInto(rootData, op.args[i].sendData, t, op.args[root].op, n); err != nil {
					return err
				}
			}
		} else {
			rootData = op.gatherSends()
			rootBytes = len(rootData)
		}
		op.out = make([][]byte, P)
		op.out[root] = rootData
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
		op.out = make([][]byte, P)
		es := t.Size()
		switch op.kind {
		case trace.CollAllreduce:
			// Rank 0's staged copy accumulates the result; the others'
			// go back to the free list once folded in.
			acc := op.args[0].sendData
			for i := 1; i < P; i++ {
				if err := reduceInto(acc, op.args[i].sendData, t, op.args[0].op, n); err != nil {
					return err
				}
				putBytes(op.args[i].sendData, op.args[i].sendSlab)
				op.args[i].sendData, op.args[i].sendSlab = nil, nil
			}
			for i := range op.out {
				op.out[i] = acc
			}
		case trace.CollAllgather, trace.CollAllgatherv:
			all := op.gatherSends()
			for i := range op.out {
				op.out[i] = all
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
				buf := make([]byte, 0, P*seg)
				for j := 0; j < P; j++ {
					buf = append(buf, op.args[j].sendData[i*seg:(i+1)*seg]...)
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
				var buf []byte
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
			acc := append([]byte(nil), op.args[0].sendData...)
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
		op.out = make([][]byte, P)
		acc := append([]byte(nil), op.args[0].sendData...)
		op.out[0] = append([]byte(nil), acc...)
		prefixMax := op.enter[0]
		op.exits[0] = prefixMax + cost.transfer(n*t.Size()) + cost.Overhead
		for i := 1; i < P; i++ {
			if err := reduceInto(acc, op.args[i].sendData, t, op.args[0].op, n); err != nil {
				return err
			}
			op.out[i] = append([]byte(nil), acc...)
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

// runColl drives one collective call on this communicator: engine join,
// virtual clock update, and (for split) construction of the new handle.
func (c *Comm) runColl(args collArgs) collResult {
	enter := c.p.ctx.Now()
	seq := c.collSeq
	c.collSeq++
	res := c.core.engine.join(c, seq, enter, args)
	if c.p.ctx.Mode() == vtime.Virtual {
		c.p.ctx.Clock.AdvanceTo(res.exit)
	}
	return res
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
		Comm: c.core.cid, Bytes: int64(bytes), Match: id, Flags: flags,
	})
}

// syncCollective runs an untraced barrier (used by MPI_Finalize).
func (c *Comm) syncCollective(kind trace.CollKind, _ bool) {
	c.runColl(collArgs{kind: kind, root: -1})
}

// Barrier blocks until all members arrive (MPI_Barrier).
func (c *Comm) Barrier() {
	ctx := c.p.ctx
	ctx.Enter("MPI_Barrier")
	enter := ctx.Now()
	res := c.runColl(collArgs{kind: trace.CollBarrier, root: -1})
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
		args.sendData = append([]byte(nil), buf.Data...)
	}
	res := c.runColl(args)
	copy(buf.Data, res.data)
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
		args.sendData = append([]byte(nil), sbuf.Data...)
	}
	res := c.runColl(args)
	copy(rbuf.Data, res.data)
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
		args.sendData = append([]byte(nil), v.RootBuf.Data...)
	}
	res := c.runColl(args)
	copy(v.Buf.Data, res.data)
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
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	if c.myRank == root {
		c.checkBuf(rbuf, "Gather root")
		if len(res.data) > len(rbuf.Data) {
			panic(fmt.Sprintf("mpi: Gather root buffer too small: %d < %d", len(rbuf.Data), len(res.data)))
		}
		copy(rbuf.Data, res.data)
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
		sendData: append([]byte(nil), v.Buf.Data...)}
	res := c.runColl(args)
	if c.myRank == v.Root {
		copy(v.RootBuf.Data, res.data)
	}
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
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	if c.myRank == root {
		c.checkBuf(rbuf, "Reduce root")
		copy(rbuf.Data, res.data)
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
		sendType: sbuf.Type, sendCount: sbuf.Count}
	args.sendData, args.sendSlab = getBytes(len(sbuf.Data), false)
	copy(args.sendData, sbuf.Data)
	res := c.runColl(args)
	copy(rbuf.Data, res.data)
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
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	if len(res.data) > len(rbuf.Data) {
		panic(fmt.Sprintf("mpi: Allgather buffer too small: %d < %d", len(rbuf.Data), len(res.data)))
	}
	copy(rbuf.Data, res.data)
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
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	if len(res.data) > len(rbuf.Data) {
		panic(fmt.Sprintf("mpi: Allgatherv buffer too small: %d < %d", len(rbuf.Data), len(res.data)))
	}
	copy(rbuf.Data, res.data)
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
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	copy(rbuf.Data, res.data)
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
		counts:   append([]int(nil), sendCounts...),
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	if len(res.data) > len(rbuf.Data) {
		panic(fmt.Sprintf("mpi: Alltoallv receive buffer too small: %d < %d", len(rbuf.Data), len(res.data)))
	}
	copy(rbuf.Data, res.data)
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
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	copy(rbuf.Data, res.data)
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
		counts:   append([]int(nil), counts...),
		sendData: append([]byte(nil), sbuf.Data...)}
	res := c.runColl(args)
	copy(rbuf.Data, res.data)
	c.recordColl(trace.CollReduceScatter, -1, sbuf.Bytes(), res.id, enter)
	ctx.Exit()
}
