// Package xctx defines the per-executor execution context shared by the MPI
// and OpenMP substrates: a clock, a trace buffer drawn from the run's
// trace.Recorder, and a lock-free random generator.  An MPI process owns
// one context; an OpenMP fork derives one child context per thread, whose
// buffer comes from the same recorder, and folds the clocks back at the
// join, where the thread's buffer is handed back with Rec.Done.
package xctx

import (
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// Ctx is the state of one executor (process or thread).  It is owned by a
// single goroutine and is not safe for concurrent use (the shared fields
// ThreadSeq and Rec are themselves concurrency-safe).
type Ctx struct {
	Clock *vtime.Clock
	TB    *trace.Buffer // nil when tracing is disabled
	RNG   *work.RNG
	Loc   trace.Location

	// ThreadSeq allocates unique thread numbers within this rank, shared
	// by all contexts forked from the same root (nested OpenMP teams get
	// fresh, non-colliding thread ids).
	ThreadSeq *atomic.Int32
	// Rec is the run's trace recorder, shared by every context of the
	// run: Fork draws a thread's buffer from it and the OpenMP join hands
	// the buffer back with Rec.Done.  Nil when tracing is disabled.
	Rec *trace.Recorder

	// TeamBase namespaces the OpenMP team ids allocated on this context so
	// they are a pure function of execution position rather than of global
	// allocation order: the root context of rank r starts at r<<14, and
	// each Fork offsets the child by thread<<9.  Identical programs then
	// produce identical team ids regardless of goroutine interleaving or
	// execution engine — the property the engine differential harness
	// byte-compares traces under.
	TeamBase uint32
	// teamSeq counts the teams this context has encountered (see
	// NextTeamID).  Owned by the context's goroutine, like the clock.
	teamSeq uint32
}

// New creates a root context for the given location, recording into a
// buffer drawn from rec.  The clock must be freshly constructed for this
// executor; rec may be nil to disable tracing.
func New(clock *vtime.Clock, rec *trace.Recorder, rng *work.RNG, loc trace.Location) *Ctx {
	seq := &atomic.Int32{}
	seq.Store(loc.Thread)
	return &Ctx{
		Clock: clock, TB: rec.Buffer(loc), RNG: rng, Loc: loc, ThreadSeq: seq,
		Rec: rec, TeamBase: uint32(loc.Rank) << 14,
	}
}

// NextTeamID allocates the id of the next OpenMP team encountered on this
// context, deterministic in (rank, forking thread, team ordinal).  The id
// is folded into 31 bits so it fits the trace Comm field alongside MPI
// communicator ids; collisions across the two namespaces are harmless
// because analyzers key MPI and OMP events separately.
func (c *Ctx) NextTeamID() int32 {
	c.teamSeq++
	return int32((c.TeamBase + c.teamSeq) & 0x7fffffff)
}

// Now returns the executor's current time.
func (c *Ctx) Now() float64 { return c.Clock.Now() }

// Mode returns the clock mode.
func (c *Ctx) Mode() vtime.Mode { return c.Clock.Mode() }

// Work executes secs seconds of generic sequential work (ATS do_work).
func (c *Ctx) Work(secs float64) {
	work.Do(c.Clock, c.RNG, secs)
}

// Enter opens a trace region at the current time.
func (c *Ctx) Enter(name string) {
	c.TB.Enter(name, c.Now())
}

// Exit closes the current trace region at the current time.
func (c *Ctx) Exit() {
	c.TB.Exit(c.Now())
}

// Record appends a trace event stamped with the current location/path.
func (c *Ctx) Record(ev trace.Event) {
	c.TB.Record(ev)
}

// Fork derives a child context for a new thread, starting at the parent's
// current time with an independent random stream and its own trace buffer
// from Rec (nil if the parent is untraced).  The thread number is allocated
// from the rank-wide ThreadSeq counter, so concurrent and nested teams
// never share a location.
func (c *Ctx) Fork() *Ctx {
	thread := c.ThreadSeq.Add(1)
	loc := trace.Location{Rank: c.Loc.Rank, Thread: thread}
	child := &Ctx{
		Clock:     c.Clock.Fork(),
		RNG:       c.RNG.Fork(uint64(thread) + 1),
		Loc:       loc,
		ThreadSeq: c.ThreadSeq,
		Rec:       c.Rec,
		TeamBase:  c.TeamBase + uint32(thread)<<9,
	}
	if c.TB != nil {
		child.TB = c.Rec.Buffer(loc)
		// The child's events carry the parent's dynamic call path, as in
		// EXPERT's call-tree model.
		child.TB.Seed(c.TB.StackNames())
	}
	return child
}
