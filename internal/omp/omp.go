// Package omp implements the thread-team (OpenMP-like) substrate of the
// ATS reproduction: fork-join parallel regions, barriers, worksharing
// loops with static/dynamic/guided schedules, single/master/sections
// constructs, and critical sections / locks.
//
// The package exists because the ATS property functions for OpenMP
// (imbalance_in_omp_pregion, imbalance_at_omp_barrier,
// imbalance_in_omp_loop, …) are statements about fork-join semantics:
// which thread waits at which team-wide synchronization point.  Those
// semantics are reproduced exactly; the pragma syntax is replaced by
// explicit calls on a team-context value (Go has no compiler pragmas).
//
// As in the mpi package, timestamps come from the executor clocks: in
// Virtual mode a barrier releases all threads at the maximum arrival time
// plus the barrier cost, a dynamic loop is scheduled greedily by thread
// clock (deterministic list scheduling), and the join folds the maximum
// thread clock back into the encountering context.
package omp

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/distr"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/xctx"
)

// CostModel parameterizes the virtual-time overheads of the OpenMP-like
// constructs, in seconds.  The defaults are EPCC-microbenchmark-shaped:
// small but nonzero, so construct overheads are visible in traces without
// dominating them.
type CostModel struct {
	Fork     float64 // charged to each thread at region start
	Join     float64 // charged at region end
	Barrier  float64 // charged at each barrier release
	Dispatch float64 // charged per dynamic/guided chunk handout
	Critical float64 // charged per critical-section entry
}

// DefaultCost returns the standard construct overheads.
func DefaultCost() CostModel {
	return CostModel{
		Fork:     10e-6,
		Join:     10e-6,
		Barrier:  5e-6,
		Dispatch: 0.5e-6,
		Critical: 0.5e-6,
	}
}

// teamOpID derives the trace Match id of a team operation from the team id
// and the construct sequence number, so ids depend only on execution
// position — identical programs emit identical ids regardless of goroutine
// interleaving or execution engine (a global counter would not survive the
// engine differential harness's byte comparison).  Bit 31 of seq
// distinguishes the implicit join barrier from worksharing constructs.
func teamOpID(teamID int32, seq uint64) uint64 {
	return uint64(uint32(teamID))<<32 | (seq+1)&0xffffffff
}

// team is the shared state of one parallel region.
type team struct {
	id   int32
	size int
	cost CostModel
	mode vtime.Mode

	mu   sync.Mutex
	cond *sync.Cond
	ops  map[uint64]*teamOp

	failErr error // first panic of any thread

	locks map[string]*Lock // named critical sections
}

// fail records a thread panic and wakes all waiters.
func (tm *team) fail(err error) {
	tm.mu.Lock()
	if tm.failErr == nil {
		tm.failErr = err
	}
	tm.cond.Broadcast()
	tm.mu.Unlock()
}

// checkFailedLocked panics (unwinding the thread) if the team has failed.
// Callers must hold tm.mu exactly once; the panic path releases it so that
// sibling threads can observe the failure too.
func (tm *team) checkFailedLocked() {
	if tm.failErr != nil {
		err := tm.failErr
		tm.mu.Unlock()
		panic(teamAbort{err})
	}
}

// teamAbort unwinds sibling threads after a panic.
type teamAbort struct{ cause error }

func (e teamAbort) Error() string {
	return "omp: team aborted because another thread failed: " + e.cause.Error()
}

// TC is a thread context: the handle each team member receives, combining
// the thread's executor context with the team coordination state.  A TC is
// owned by its thread goroutine.
type TC struct {
	ctx  *xctx.Ctx
	team *team
	id   int // omp_get_thread_num()
	seq  uint64
}

// ThreadNum returns the thread's id within its team (omp_get_thread_num).
func (tc *TC) ThreadNum() int { return tc.id }

// NumThreads returns the team size (omp_get_num_threads).
func (tc *TC) NumThreads() int { return tc.team.size }

// Ctx exposes the thread's executor context.
func (tc *TC) Ctx() *xctx.Ctx { return tc.ctx }

// Now returns the thread's current time.
func (tc *TC) Now() float64 { return tc.ctx.Now() }

// Work executes secs seconds of sequential work on this thread (do_work).
func (tc *TC) Work(secs float64) { tc.ctx.Work(secs) }

// DoWork is par_do_omp_work: every team member calls it and executes
// df(threadNum, teamSize, sf, dd) seconds of work.
func (tc *TC) DoWork(df distr.Func, dd distr.Desc, sf float64) {
	tc.ctx.Work(df(tc.id, tc.team.size, sf, dd))
}

// Begin opens a user trace region on this thread.
func (tc *TC) Begin(name string) { tc.ctx.Enter(name) }

// End closes the current user trace region.
func (tc *TC) End() { tc.ctx.Exit() }

// Options configures a parallel region.
type Options struct {
	// Threads is the team size (default 4).
	Threads int
	// Cost overrides the construct cost model; zero value selects
	// DefaultCost.
	Cost CostModel
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if (o.Cost == CostModel{}) {
		o.Cost = DefaultCost()
	}
	return o
}

// Parallel executes body on a team of opt.Threads threads forked from ctx
// ("#pragma omp parallel").  Thread 0 (the master) runs on the
// encountering context; the others run on freshly forked contexts whose
// trace buffers are adopted into the run.  Parallel returns after the
// join, with ctx's clock advanced to the team's completion time.  A panic
// on any thread aborts the team and re-panics on the caller.
func Parallel(ctx *xctx.Ctx, opt Options, body func(tc *TC)) {
	opt = opt.withDefaults()
	n := opt.Threads
	tm := &team{
		id:    ctx.NextTeamID(),
		size:  n,
		cost:  opt.Cost,
		mode:  ctx.Mode(),
		ops:   make(map[uint64]*teamOp),
		locks: make(map[string]*Lock),
	}
	tm.cond = sync.NewCond(&tm.mu)

	ctx.Enter("omp parallel")
	forkT := ctx.Now()
	ctx.Record(trace.Event{
		Time: forkT, Kind: trace.KindFork, Comm: tm.id,
		Bytes: int64(n),
	})

	tcs := make([]*TC, n)
	tcs[0] = &TC{ctx: ctx, team: tm, id: 0}
	for i := 1; i < n; i++ {
		child := ctx.Fork()
		child.Clock.Advance(opt.Cost.Fork)
		child.Enter("omp parallel")
		tcs[i] = &TC{ctx: child, team: tm, id: i}
	}
	ctx.Clock.Advance(opt.Cost.Fork)

	var wg sync.WaitGroup
	finish := make([]float64, n)
	runThread := func(tc *TC) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(teamAbort); !ok {
					tm.fail(fmt.Errorf("omp: thread %d panicked: %v\n%s",
						tc.id, r, debug.Stack()))
				}
			}
			finish[tc.id] = tc.ctx.Now()
			wg.Done()
		}()
		body(tc)
	}
	wg.Add(n)
	for i := 1; i < n; i++ {
		go runThread(tcs[i])
	}
	runThread(tcs[0])
	wg.Wait()

	tm.mu.Lock()
	err := tm.failErr
	tm.mu.Unlock()
	if err != nil {
		// Close children's regions so buffers stay well-formed, then
		// propagate.
		for i := 1; i < n; i++ {
			for tcs[i].ctx.TB.Depth() > 0 {
				tcs[i].ctx.Exit()
			}
			ctx.Rec.Done(tcs[i].ctx.TB)
		}
		panic(err)
	}

	// Join: every thread synchronizes at the maximum finish time.
	joinT := finish[0]
	for _, f := range finish[1:] {
		if f > joinT {
			joinT = f
		}
	}
	joinT += opt.Cost.Join
	opID := teamOpID(tm.id, tcs[0].seq|1<<31)
	for i := n - 1; i >= 0; i-- {
		tc := tcs[i]
		if tc.ctx.Mode() == vtime.Virtual {
			tc.ctx.Clock.AdvanceTo(joinT)
		}
		tc.ctx.Record(trace.Event{
			Time: tc.ctx.Now(), Aux: finish[i], Kind: trace.KindColl,
			Coll: trace.CollOMPJoin, CRank: int32(i), Root: -1,
			Comm: tm.id, Parts: int32(n), Match: opID,
		})
		if i > 0 {
			tc.ctx.Exit() // close the child's "omp parallel" region
			ctx.Rec.Done(tc.ctx.TB)
		}
	}
	ctx.Record(trace.Event{
		Time: ctx.Now(), Aux: forkT, Kind: trace.KindJoin, Comm: tm.id,
	})
	ctx.Exit()
}

// ParallelFor is the combined "#pragma omp parallel for": it forks a team
// that executes just the loop.
func ParallelFor(ctx *xctx.Ctx, opt Options, n int, fo ForOpt, body func(tc *TC, i int)) {
	Parallel(ctx, opt, func(tc *TC) {
		tc.For(n, fo, func(i int) { body(tc, i) })
	})
}
