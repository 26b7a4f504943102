package omp

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Schedule selects the loop-iteration schedule of For.
type Schedule uint8

const (
	// Static divides iterations into fixed chunks assigned round-robin
	// (the default schedule: one contiguous block per thread).
	Static Schedule = iota
	// Dynamic hands chunks to threads as they become idle.
	Dynamic
	// Guided hands out exponentially shrinking chunks.
	Guided
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("schedule(%d)", uint8(s))
	}
}

// ForOpt configures a worksharing loop.
type ForOpt struct {
	Sched Schedule
	// Chunk is the chunk size (0 selects the schedule's default: block
	// partition for Static, 1 for Dynamic, minimum 1 for Guided).
	Chunk int
	// NoWait suppresses the implicit barrier at loop end.
	NoWait bool
}

// teamOp kinds.
const (
	opBarrier uint8 = iota
	opFor
	opSingle
	opReduce
)

// teamOp synchronizes the team through one worksharing or barrier
// construct.  All threads must encounter team-wide constructs in the same
// order; the per-thread sequence number enforces it.
type teamOp struct {
	kind    uint8
	id      uint64
	arrived int
	taken   int
	done    bool

	enter []float64

	// barrier / implicit-barrier results
	exit float64

	// dynamic loop state
	next    int       // next unassigned iteration
	total   int       // iteration count
	running int       // threads currently executing a chunk
	inLoop  int       // threads that entered the loop
	doneCnt int       // threads that left the loop
	clocks  []float64 // current virtual clock per thread (loop members)
	inSet   []bool    // thread entered the loop
	waiting []bool    // thread is idle at the dispenser

	// single
	chosen    int
	execDone  bool
	finishOne float64

	// reduce
	vals []float64
}

// getOp returns (creating if necessary) the op for sequence seq, checking
// construct agreement across threads.
func (tm *team) getOp(seq uint64, kind uint8, size int) *teamOp {
	op := tm.ops[seq]
	if op == nil {
		op = &teamOp{
			kind:    kind,
			id:      teamOpID(tm.id, seq),
			enter:   make([]float64, size),
			clocks:  make([]float64, size),
			inSet:   make([]bool, size),
			waiting: make([]bool, size),
			chosen:  -1,
		}
		tm.ops[seq] = op
	}
	if op.kind != kind {
		err := fmt.Errorf("omp: construct mismatch at sequence %d: %d vs %d", seq, kind, op.kind)
		tm.failErr = err
		tm.cond.Broadcast()
		tm.mu.Unlock()
		panic(teamAbort{err})
	}
	return op
}

// release accounts an op participant's departure and garbage-collects the
// op when the whole team has passed it.
func (tm *team) release(seq uint64, op *teamOp) {
	op.taken++
	if op.taken == tm.size {
		delete(tm.ops, seq)
	}
}

// barrierInternal implements the team barrier used both explicitly and as
// the implicit barrier of worksharing constructs.  collKind tags the trace
// event so the analyzer can attribute the wait to the right construct.
func (tc *TC) barrierInternal(collKind trace.CollKind, record bool) {
	tm := tc.team
	seq := tc.seq
	tc.seq++
	enter := tc.ctx.Now()

	tm.mu.Lock()
	op := tm.getOp(seq, opBarrier, tm.size)
	op.enter[tc.id] = enter
	op.arrived++
	if op.arrived == tm.size {
		m := op.enter[0]
		for _, e := range op.enter[1:] {
			if e > m {
				m = e
			}
		}
		op.exit = m + tm.cost.Barrier
		op.done = true
		tm.cond.Broadcast()
	} else {
		for !op.done {
			tm.checkFailedLocked()
			tm.cond.Wait()
		}
	}
	exit := op.exit
	id := op.id
	tm.release(seq, op)
	tm.mu.Unlock()

	if tc.ctx.Mode() == vtime.Virtual {
		tc.ctx.Clock.AdvanceTo(exit)
	}
	if record {
		tc.ctx.Record(trace.Event{
			Time: tc.ctx.Now(), Aux: enter, Kind: trace.KindColl,
			Coll: collKind, CRank: int32(tc.id), Root: -1,
			Comm: tm.id, Parts: int32(tm.size), Match: id,
		})
	}
}

// Barrier blocks until all team members arrive ("#pragma omp barrier").
func (tc *TC) Barrier() {
	tc.ctx.Enter("omp barrier")
	tc.barrierInternal(trace.CollOMPBarrier, true)
	tc.ctx.Exit()
}

// For executes a worksharing loop of n iterations over the team
// ("#pragma omp for").  Every team member must call it.  The body receives
// the iteration index.  Unless fo.NoWait is set, an implicit barrier
// follows the loop.
func (tc *TC) For(n int, fo ForOpt, body func(i int)) {
	if n < 0 {
		panic(fmt.Sprintf("omp: For with negative iteration count %d", n))
	}
	tc.forInternal("omp for", trace.CollOMPForEnd, n, fo, body)
}

// Sections distributes the given section bodies over the team
// ("#pragma omp sections"), one section per dynamic chunk, followed by an
// implicit barrier.
func (tc *TC) Sections(sections ...func()) {
	tc.forInternal("omp sections", trace.CollOMPSection, len(sections),
		ForOpt{Sched: Dynamic, Chunk: 1}, func(i int) { sections[i]() })
}

func (tc *TC) forInternal(region string, endKind trace.CollKind, n int, fo ForOpt, body func(i int)) {
	tc.ctx.Enter(region)
	switch fo.Sched {
	case Static:
		tc.staticLoop(n, fo.Chunk, body)
	case Dynamic, Guided:
		tc.dynamicLoop(n, fo, body)
	default:
		panic(fmt.Sprintf("omp: unknown schedule %v", fo.Sched))
	}
	if !fo.NoWait {
		tc.barrierInternal(endKind, true)
	}
	tc.ctx.Exit()
}

// staticLoop runs this thread's statically assigned chunks; no
// coordination is required.
func (tc *TC) staticLoop(n, chunk int, body func(i int)) {
	T, me := tc.team.size, tc.id
	if chunk <= 0 {
		// Default: one contiguous block per thread.
		lo, hi := me*n/T, (me+1)*n/T
		for i := lo; i < hi; i++ {
			body(i)
		}
		return
	}
	for base := chunk * me; base < n; base += chunk * T {
		end := base + chunk
		if end > n {
			end = n
		}
		for i := base; i < end; i++ {
			body(i)
		}
	}
}

// dynamicLoop hands out chunks on demand.  In Virtual mode it performs
// deterministic greedy list scheduling: once the whole team has entered
// the loop, the next chunk always goes to the idle thread with the
// smallest virtual clock (ties to the smallest id).  Chunk bodies then
// execute one at a time in simulated order — real-time parallelism is
// traded for exact, reproducible virtual schedules.  In Real mode a shared
// dispenser hands chunks to genuinely parallel threads.
func (tc *TC) dynamicLoop(n int, fo ForOpt, body func(i int)) {
	tm := tc.team
	seq := tc.seq
	tc.seq++
	chunk := fo.Chunk
	if chunk <= 0 {
		chunk = 1
	}

	tm.mu.Lock()
	op := tm.getOp(seq, opFor, tm.size)
	if !op.inSet[tc.id] {
		op.inSet[tc.id] = true
		op.inLoop++
		op.total = n
	}
	op.clocks[tc.id] = tc.ctx.Now()

	if tm.mode == vtime.Real {
		// Real mode: plain chunk dispenser under the lock.
		for op.next < n {
			lo := op.next
			sz := chunkSize(fo, n-lo, tm.size, chunk)
			op.next += sz
			tm.mu.Unlock()
			for i := lo; i < lo+sz && i < n; i++ {
				body(i)
			}
			tm.mu.Lock()
		}
		op.doneCnt++
		tm.cond.Broadcast()
		tm.release(seq, op)
		tm.mu.Unlock()
		return
	}

	// Virtual mode: greedy list scheduling.
	op.waiting[tc.id] = true
	tm.cond.Broadcast()
	for {
		if op.next >= n {
			break
		}
		if op.inLoop == tm.size && op.running == 0 && tc.isMinClock(op) {
			lo := op.next
			sz := chunkSize(fo, n-lo, tm.size, chunk)
			op.next += sz
			op.running++
			op.waiting[tc.id] = false
			tm.mu.Unlock()

			tc.ctx.Clock.Advance(tm.cost.Dispatch)
			for i := lo; i < lo+sz && i < n; i++ {
				body(i)
			}

			tm.mu.Lock()
			op.clocks[tc.id] = tc.ctx.Now()
			op.running--
			op.waiting[tc.id] = true
			tm.cond.Broadcast()
			continue
		}
		tm.checkFailedLocked()
		tm.cond.Wait()
	}
	op.waiting[tc.id] = false
	op.doneCnt++
	tm.cond.Broadcast()
	tm.release(seq, op)
	tm.mu.Unlock()
}

// isMinClock reports whether tc is the waiting thread with the smallest
// clock (ties broken by id).  Caller holds tm.mu.
func (tc *TC) isMinClock(op *teamOp) bool {
	for i := 0; i < tc.team.size; i++ {
		if i == tc.id || !op.waiting[i] {
			continue
		}
		if op.clocks[i] < op.clocks[tc.id] {
			return false
		}
		if op.clocks[i] == op.clocks[tc.id] && i < tc.id {
			return false
		}
	}
	return op.waiting[tc.id]
}

// chunkSize computes the next chunk size for the schedule.
func chunkSize(fo ForOpt, remaining, threads, minChunk int) int {
	if fo.Sched == Guided {
		sz := remaining / (2 * threads)
		if sz < minChunk {
			sz = minChunk
		}
		if sz > remaining {
			sz = remaining
		}
		return sz
	}
	if minChunk > remaining {
		return remaining
	}
	return minChunk
}

// Single executes f on exactly one team member ("#pragma omp single"); the
// executor is the thread with the earliest arrival (ties to the smallest
// id).  An implicit barrier follows: no thread proceeds until f completed.
func (tc *TC) Single(f func()) {
	tm := tc.team
	tc.ctx.Enter("omp single")
	seq := tc.seq
	tc.seq++
	enter := tc.ctx.Now()

	tm.mu.Lock()
	op := tm.getOp(seq, opSingle, tm.size)
	op.enter[tc.id] = enter
	op.inSet[tc.id] = true
	op.arrived++
	if op.arrived == tm.size {
		// Choose the executor: earliest arrival, smallest id on ties.
		op.chosen = 0
		for i := 1; i < tm.size; i++ {
			if op.enter[i] < op.enter[op.chosen] {
				op.chosen = i
			}
		}
		tm.cond.Broadcast()
	}
	for op.chosen < 0 {
		tm.checkFailedLocked()
		tm.cond.Wait()
	}
	amChosen := op.chosen == tc.id
	if amChosen {
		tm.mu.Unlock()
		f()
		tm.mu.Lock()
		op.finishOne = tc.ctx.Now()
		op.execDone = true
		tm.cond.Broadcast()
	}
	for !op.execDone {
		tm.checkFailedLocked()
		tm.cond.Wait()
	}
	// Implicit barrier at max(all enters, executor finish).
	m := op.finishOne
	for i := 0; i < tm.size; i++ {
		if op.enter[i] > m {
			m = op.enter[i]
		}
	}
	exit := m + tm.cost.Barrier
	id := op.id
	tm.release(seq, op)
	tm.mu.Unlock()

	if tc.ctx.Mode() == vtime.Virtual {
		tc.ctx.Clock.AdvanceTo(exit)
	}
	tc.ctx.Record(trace.Event{
		Time: tc.ctx.Now(), Aux: enter, Kind: trace.KindColl,
		Coll: trace.CollOMPSingle, CRank: int32(tc.id), Root: int32(op.chosen),
		Comm: tm.id, Parts: int32(tm.size), Match: id,
	})
	tc.ctx.Exit()
}

// Reduce combines each thread's partial value with the associative,
// commutative combine function and returns the result to every thread —
// the runtime counterpart of OpenMP's reduction clause.  Like a barrier it
// synchronizes the team; the combination is applied in thread order, so
// the result is deterministic even for merely-approximately-associative
// float operations.
func (tc *TC) Reduce(combine func(a, b float64) float64, v float64) float64 {
	tm := tc.team
	tc.ctx.Enter("omp reduction")
	seq := tc.seq
	tc.seq++
	enter := tc.ctx.Now()

	tm.mu.Lock()
	op := tm.getOp(seq, opReduce, tm.size)
	if op.vals == nil {
		op.vals = make([]float64, tm.size)
	}
	op.vals[tc.id] = v
	op.enter[tc.id] = enter
	op.arrived++
	if op.arrived == tm.size {
		m := op.enter[0]
		for _, e := range op.enter[1:] {
			if e > m {
				m = e
			}
		}
		op.exit = m + tm.cost.Barrier
		op.done = true
		tm.cond.Broadcast()
	} else {
		for !op.done {
			tm.checkFailedLocked()
			tm.cond.Wait()
		}
	}
	acc := op.vals[0]
	for i := 1; i < tm.size; i++ {
		acc = combine(acc, op.vals[i])
	}
	exit := op.exit
	id := op.id
	tm.release(seq, op)
	tm.mu.Unlock()

	if tc.ctx.Mode() == vtime.Virtual {
		tc.ctx.Clock.AdvanceTo(exit)
	}
	tc.ctx.Record(trace.Event{
		Time: tc.ctx.Now(), Aux: enter, Kind: trace.KindColl,
		Coll: trace.CollOMPBarrier, CRank: int32(tc.id), Root: -1,
		Comm: tm.id, Parts: int32(tm.size), Match: id,
	})
	tc.ctx.Exit()
	return acc
}

// Master executes f on thread 0 only ("#pragma omp master"); there is no
// implied barrier.
func (tc *TC) Master(f func()) {
	if tc.id != 0 {
		return
	}
	tc.ctx.Enter("omp master")
	f()
	tc.ctx.Exit()
}

// Parallel starts a nested parallel region from within a team
// ("#pragma omp parallel" encountered inside a parallel region).  The
// nested team forks from this thread's context.
func (tc *TC) Parallel(opt Options, body func(tc *TC)) {
	Parallel(tc.ctx, opt, body)
}
