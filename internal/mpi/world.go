package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perturb"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
	"repro/internal/xctx"
)

// Options configures a World run.
type Options struct {
	// Procs is the number of MPI processes (default 4).
	Procs int
	// Mode selects virtual (default) or real time.
	Mode vtime.Mode
	// Cost is the virtual-time cost model; the zero value selects
	// DefaultCost.
	Cost CostModel
	// Untraced disables event tracing (the zero value traces).
	Untraced bool
	// Timeout is the real-time watchdog for deadlock detection
	// (default 60s).
	Timeout time.Duration
	// Seed seeds the per-rank random generators (default 1).
	Seed uint64
	// BaseType and BaseCount set the default message buffer used by
	// property functions (set_base_comm); defaults: MPI_DOUBLE × 256.
	BaseType  Datatype
	BaseCount int
	// Perturb injects deterministic timing disturbances (clock-rate
	// skew, stragglers, message/collective jitter, OS-noise bursts) into
	// Virtual-mode runs; nil leaves the run exactly unperturbed.  See
	// package perturb.
	Perturb *perturb.Model
	// Sink, when non-nil, is the writer the run spools into instead of
	// the in-memory spool it otherwise reads back as its trace: every
	// per-location buffer is attached to it, spills chunk frames while
	// recording, and is finished as its executor completes, either way.
	// Run then returns a nil trace — open the sink's spool with
	// trace.OpenChunkFile (or trace.NewChunkReader when it was spooled in
	// memory) / trace.NewStream and analyze with analyzer.AnalyzeStream,
	// which yields a report byte-identical to the materialized path
	// without materializing the event list.  Ignored when Untraced.
	Sink *trace.ChunkWriter
	// Engine selects the Virtual-mode rank-execution strategy:
	// EngineEvent (the zero value) or EngineGoroutine, the reference the
	// cross-engine differential compares against.  Real mode ignores it
	// and always runs on goroutines.  Both engines produce byte-identical
	// traces (see engine_diff_test.go).
	Engine Engine
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = 4
	}
	if o.Cost.zero() {
		o.Cost = DefaultCost()
	}
	if o.Cost.EagerThreshold <= 0 {
		o.Cost.EagerThreshold = 4096
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BaseCount <= 0 {
		o.BaseType, o.BaseCount = TypeDouble, 256
	}
	return o
}

// World is one parallel run: a fixed set of ranks executing a body
// function, exchanging messages, and (optionally) producing a trace.
type World struct {
	opt   Options
	epoch time.Time

	procs []*proc

	// eventMode marks a run on the event engine (see evsched.go); sched
	// is its dispatcher.  p2p match ids and collective instance ids need
	// no counters: they are pure functions of (rank, send count) and
	// (communicator, sequence) — identical across engines and host
	// schedules, which is what makes byte-identical traces possible.
	eventMode bool
	sched     *evScheduler

	// mailOcc counts mailboxes with pending messages (maintained by
	// mailbox.setQlen).  The event scheduler's quiescence check reads it
	// to decide in O(1) that no other rank holds mail that could spoil a
	// wildcard receive.
	mailOcc atomic.Int32

	commCounter atomic.Int32 // communicator context ids

	// failure propagation (MPI_Abort semantics): the first panic on any
	// rank aborts the world; all blocked ranks are woken and unwound.
	failMu   sync.Mutex
	failErr  error
	failed   atomic.Bool
	failCh   chan struct{} // closed on first failure
	wakeable []waker
}

// waker is anything blocked ranks wait on; on world failure every waker is
// broadcast so waiters can observe the failure and unwind.
type waker interface{ wakeAll() }

// abortError wraps the original rank failure for ranks unwound by the
// abort broadcast.
type abortError struct{ cause error }

func (e abortError) Error() string {
	return "mpi: run aborted because another rank failed: " + e.cause.Error()
}

// RankError is the failure Run returns when a rank's body panics: it
// carries the failing rank's identity out of the event loop so callers
// (and the conformance shrinker) can attribute the abort.  Err holds the
// panic value and stack.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// Execution states used by the conservative wildcard-matching protocol
// (see mailbox.take): a rank that is blocked or finished cannot produce an
// earlier message than the best queued candidate.
const (
	stateRunning int32 = iota
	stateBlocked
	stateDone
)

// proc is the per-rank state.
type proc struct {
	w    *World
	rank int
	ctx  *xctx.Ctx
	mb   *mailbox

	// state tracks whether the rank's goroutine is computing, blocked in
	// a substrate wait, or finished; read concurrently by wildcard
	// receivers.
	state atomic.Int32

	// sendSeq counts this rank's p2p messages per destination world rank
	// (only allocated under Options.Perturb): the deterministic message
	// identity that keys latency jitter.  Owned by the rank's goroutine.
	sendSeq []uint64

	// sendCount numbers this rank's p2p sends in program order; together
	// with the rank it forms the deterministic trace match id (see
	// matchID).  Owned by the rank's goroutine.
	sendCount uint64

	// Event-engine state (see evsched.go).  evResume carries the run
	// token (capacity 1).  evState is written by whichever goroutine owns
	// the rank at the time and read by the scheduler's abort and
	// quiescence scans, hence atomic.
	evResume   chan struct{}
	evState    atomic.Int32
	evCid      int32 // parked receive spec, valid when evState == evRecv
	evSrc      int
	evTag      int
	evGrant    bool // scheduler granted the parked wildcard receive
	evGrantIdx int  // queue index of the granted candidate (evScheduler.quiesce)
	evInWild   bool // on the scheduler's wildcard-waiter list (token holder's)

	// base default buffer (set_base_comm); per-rank so writes stay local.
	baseType  Datatype
	baseCount int
}

// blockedSection marks the proc blocked for the duration of a substrate
// wait; the returned function restores the running state.
func (p *proc) blockedSection() func() {
	p.state.Store(stateBlocked)
	return func() { p.state.Store(stateRunning) }
}

// spoilers reports whether any other rank could still produce a message
// arriving before `avail` virtual time: a rank whose clock is behind the
// candidate arrival and that is either computing, or blocked with
// deliverable messages in its own mailbox (it may wake, consume them, and
// respond before the candidate).
func (w *World) spoilers(me *proc, avail float64) bool {
	for _, p := range w.procs {
		st := p.state.Load()
		if p == me || st == stateDone || p.ctx.Clock.Now() >= avail {
			continue
		}
		switch st {
		case stateRunning:
			return true
		case stateBlocked:
			if p.mb.qlen.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// fail records the first failure and wakes every blocked rank.
func (w *World) fail(err error) {
	w.failMu.Lock()
	first := w.failErr == nil
	if first {
		w.failErr = err
	}
	w.failed.Store(true)
	if first {
		close(w.failCh)
	}
	wk := append([]waker(nil), w.wakeable...)
	w.failMu.Unlock()
	for _, x := range wk {
		x.wakeAll()
	}
}

// registerWaker adds a blocking structure to the abort broadcast set.
// The event engine has no blocking condition variables to broadcast —
// parked ranks are resumed by the scheduler's abort scan — so it keeps
// the set empty instead of accumulating one waker per mailbox and
// collective engine.
func (w *World) registerWaker(x waker) {
	if w.eventMode {
		return
	}
	w.failMu.Lock()
	w.wakeable = append(w.wakeable, x)
	w.failMu.Unlock()
}

// failError returns the recorded first failure.
func (w *World) failError() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failErr
}

// checkFailed panics with an abort error if the world has failed; called
// from every blocking wait loop.
func (w *World) checkFailed() {
	if w.failed.Load() {
		panic(abortError{cause: w.failError()})
	}
}

// Run executes body on opt.Procs ranks and returns the merged trace (nil if
// Untraced).  The body receives each rank's handle on the world
// communicator.  Any panic on any rank aborts the run and is returned as an
// error; a watchdog converts deadlocks into errors after opt.Timeout.
func Run(opt Options, body func(c *Comm)) (*trace.Trace, error) {
	opt = opt.withDefaults()
	if opt.Mode == vtime.Real {
		// Calibrate outside the timed region.
		vtime.Calibrate()
		work.CalibrateReal()
	}
	w := &World{opt: opt, epoch: time.Now(), failCh: make(chan struct{})}
	w.eventMode = eventMode(opt.Engine, opt.Mode)

	worldCore := &commCore{
		w:      w,
		cid:    0,
		ranks:  make([]int, opt.Procs),
		engine: newCollEngine(w),
	}
	w.commCounter.Store(1)
	for i := range worldCore.ranks {
		worldCore.ranks[i] = i
	}

	var rec *trace.Recorder
	if !opt.Untraced {
		rec = trace.NewRecorder(opt.Sink)
	}
	rootRNG := work.NewRNG(opt.Seed)
	w.procs = make([]*proc, opt.Procs)
	comms := make([]*Comm, opt.Procs)
	for i := 0; i < opt.Procs; i++ {
		clock := vtime.NewClock(opt.Mode, w.epoch)
		if opt.Perturb != nil && opt.Mode == vtime.Virtual {
			clock.SetPerturber(opt.Perturb.Executor(i, opt.Procs))
		}
		ctx := xctx.New(clock, rec, rootRNG.Fork(uint64(i)), trace.Location{Rank: int32(i), Thread: 0})
		p := &proc{
			w:         w,
			rank:      i,
			ctx:       ctx,
			baseType:  opt.BaseType,
			baseCount: opt.BaseCount,
		}
		p.mb = newMailbox(w, p)
		if opt.Perturb != nil {
			p.sendSeq = make([]uint64, opt.Procs)
		}
		w.procs[i] = p
		comms[i] = &Comm{core: worldCore, p: p, myRank: i}
	}

	errs := make([]error, opt.Procs)
	var runErr error
	var stuck bool
	if w.eventMode {
		runErr, stuck = w.runEvent(comms, errs, body)
	} else {
		runErr, stuck = w.runGoroutine(comms, errs, body)
	}
	if stuck {
		// Some rank never unwound after the abort; its goroutine may
		// still be recording, so the buffers cannot be touched.
		return nil, runErr
	}

	// Ranks have all exited, so no goroutine is still recording; OpenMP
	// thread buffers were handed back at their joins.
	for _, p := range w.procs {
		rec.Done(p.ctx.TB)
	}
	tr, err := rec.Trace()
	if runErr == nil {
		runErr = err
	}
	return tr, runErr
}

// runRank executes one rank's init/body/finalize with panic confinement;
// shared by both engines.
func (w *World) runRank(c *Comm, body func(c *Comm), errs []error) {
	rank := c.p.rank
	defer func() {
		if r := recover(); r != nil {
			var err error
			if ae, ok := r.(abortError); ok {
				err = ae
			} else {
				err = &RankError{Rank: rank, Err: fmt.Errorf("%v\n%s", r, debug.Stack())}
				w.fail(err)
			}
			errs[rank] = err
		}
	}()
	defer c.p.state.Store(stateDone)
	c.init()
	body(c)
	c.finalize()
}

// runGoroutine executes the world on the goroutine engine: one
// free-running goroutine per rank, condition-variable blocking, and the
// spoiler poll loop for wildcard receives.
func (w *World) runGoroutine(comms []*Comm, errs []error, body func(c *Comm)) (runErr error, stuck bool) {
	var wg sync.WaitGroup
	for i := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			w.runRank(c, body, errs)
		}(comms[i])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return w.awaitDone(done, errs)
}

// runEvent executes the world on the event engine: rank goroutines gate
// on their resume channels and pass the run token among themselves in
// virtual-clock order (see evsched.go).
func (w *World) runEvent(comms []*Comm, errs []error, body func(c *Comm)) (runErr error, stuck bool) {
	s := newEvScheduler(w)
	w.sched = s
	for _, p := range w.procs {
		p.evResume = make(chan struct{}, 1)
		s.readyProc(p)
	}
	for i := range comms {
		go func(c *Comm) {
			<-c.p.evResume // first dispatch
			w.runRank(c, body, errs)
			s.finish(c.p)
		}(comms[i])
	}
	done := make(chan struct{})
	go func() {
		s.loop()
		close(done)
	}()
	return w.awaitDone(done, errs)
}

// awaitDone waits for a run to complete under the real-time watchdog and
// resolves the run error.  The watchdog remains even though the event
// engine detects structural deadlocks instantly: runaway user code (an
// infinite loop inside a rank body) blocks either engine forever and
// only real time can catch it.  stuck reports that some rank failed to
// unwind within the grace period, in which case its goroutine may still
// be running and the trace buffers must not be touched.
//
// Both timers are stopped on return: under go 1.22 semantics an unstopped
// time.After timer stays live on the heap until it fires, so every run
// would otherwise pin one for the full watchdog period.
func (w *World) awaitDone(done chan struct{}, errs []error) (runErr error, stuck bool) {
	watchdog := time.NewTimer(w.opt.Timeout)
	defer watchdog.Stop()
	select {
	case <-done:
	case <-watchdog.C:
		w.fail(fmt.Errorf("mpi: watchdog timeout after %v (deadlock suspected)", w.opt.Timeout))
		grace := time.NewTimer(5 * time.Second)
		defer grace.Stop()
		select {
		case <-done:
		case <-grace.C:
			return fmt.Errorf("mpi: ranks failed to unwind after abort; giving up"), true
		}
	}
	runErr = w.failError()
	if runErr == nil {
		// Pick up any non-aborting rank error (shouldn't happen, but be safe).
		for _, e := range errs {
			if e != nil {
				runErr = e
				break
			}
		}
	}
	return runErr, false
}
