// Package vtime provides the dual-mode clock underlying the ATS runtime.
//
// The APART Test Suite wants synthetic programs whose pathological waiting
// times are controlled by the user.  The original C prototype approximated
// work by a calibrated busy-wait loop against wall-clock time, which the
// paper itself notes is "not guaranteed to be stable especially under heavy
// work load".  This reproduction therefore supports two clock modes:
//
//   - Virtual: every executor (MPI process, OpenMP thread) carries its own
//     logical clock.  Work advances the clock exactly; communication and
//     synchronization combine clocks algebraically (a receive completes at
//     the maximum of the receiver's clock and the message arrival time, a
//     barrier releases everyone at the maximum arrival, and so on).  All
//     timestamps are exact and runs are deterministic, which makes the
//     suite a precise calibration instrument for analysis tools.
//
//   - Real: executors burn CPU for the requested duration using a
//     calibrated spin loop, and timestamps come from the wall clock.  This
//     preserves the noisy character of the original ATS prototype and is
//     used for intrusiveness/overhead experiments.
package vtime

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects how executors account for time.
type Mode uint8

const (
	// Virtual is the deterministic logical-clock mode (default).
	Virtual Mode = iota
	// Real uses wall-clock timestamps and calibrated busy-wait work.
	Real
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case Real:
		return "real"
	default:
		return "unknown"
	}
}

// Perturber adjusts the durations a Virtual clock accounts locally,
// modeling measurement-pipeline disturbances (clock-rate skew, straggler
// executors, transient OS noise) while keeping runs fully deterministic:
// a Perturber must be a pure function of its construction seed and the
// sequence of PerturbAdvance calls it observes.  It is invoked only from
// the clock's owning goroutine, so implementations need no locking.
type Perturber interface {
	// PerturbAdvance maps a locally accounted duration d (seconds),
	// starting at virtual time now, to the perturbed duration the clock
	// actually advances by.  Returning d unchanged is the identity.
	PerturbAdvance(now, d float64) float64
	// Fork derives an independent, deterministic child perturber for a
	// sub-executor (OpenMP thread fork).  Callers fork in a fixed
	// program order, so a sequence-counter derivation is deterministic.
	Fork() Perturber
}

// Clock is a per-executor time source.  In Virtual mode it is a logical
// clock advanced explicitly; in Real mode it reports wall time relative to
// an epoch shared by all executors of a run.  The clock has a single
// writer (its owning executor); reads are safe from any goroutine — the
// MPI substrate's deterministic wildcard matching inspects other ranks'
// clocks concurrently.
type Clock struct {
	mode  Mode
	now   atomic.Uint64 // Float64bits of virtual seconds (Virtual mode)
	epoch time.Time     // shared run epoch (Real mode only)
	pert  Perturber     // optional perturbation hook (Virtual mode only)
}

// NewClock returns a clock in the given mode.  All clocks belonging to one
// run must share the same epoch so their timestamps are comparable.
func NewClock(mode Mode, epoch time.Time) *Clock {
	return &Clock{mode: mode, epoch: epoch}
}

// Fork returns a child clock starting at the parent's current time.  It is
// used when an executor spawns sub-executors (OpenMP fork, nested teams).
// An installed perturber is forked along with the clock, so sub-executors
// inherit their parent's perturbation deterministically.
func (c *Clock) Fork() *Clock {
	f := &Clock{mode: c.mode, epoch: c.epoch}
	f.now.Store(math.Float64bits(c.Now()))
	if c.pert != nil {
		f.pert = c.pert.Fork()
	}
	return f
}

// SetPerturber installs (or, with nil, removes) the perturbation hook.
// It must be called before the clock's executor starts running; the hook
// only affects Virtual mode (Real mode is naturally noisy already).
func (c *Clock) SetPerturber(p Perturber) { c.pert = p }

// Mode reports the clock mode.
func (c *Clock) Mode() Mode { return c.mode }

// Now returns the current time in seconds since the run epoch.
func (c *Clock) Now() float64 {
	if c.mode == Virtual {
		return math.Float64frombits(c.now.Load())
	}
	return time.Since(c.epoch).Seconds()
}

// Advance moves the clock forward by d seconds.  In Virtual mode this is a
// pure bookkeeping operation; in Real mode it spins the CPU for d seconds
// using the calibrated loop (see Spin).  Negative durations are ignored.
func (c *Clock) Advance(d float64) {
	if d <= 0 {
		return
	}
	if c.mode == Virtual {
		now := math.Float64frombits(c.now.Load())
		if c.pert != nil {
			if d = c.pert.PerturbAdvance(now, d); d <= 0 {
				return
			}
		}
		c.now.Store(math.Float64bits(now + d))
		return
	}
	Spin(d)
}

// AdvanceTo moves a Virtual clock forward to time t if t is in the future;
// earlier times are ignored (clocks never run backwards).  In Real mode the
// call is a no-op: real executors reach future times by genuinely blocking
// or working.
func (c *Clock) AdvanceTo(t float64) {
	if c.mode == Virtual && t > math.Float64frombits(c.now.Load()) {
		c.now.Store(math.Float64bits(t))
	}
}

// calibration state for the Real-mode spin loop.
var (
	calOnce    sync.Once
	itersPerNs float64
)

// spinChunk is the unit of uninterruptible spinning.  The loop body below
// mixes integer arithmetic through a small state machine that the compiler
// cannot eliminate.
func spinChunk(iters int64) int64 {
	acc := int64(-7046029254386353131) // 0x9e3779b97f4a7c15 as int64
	for i := int64(0); i < iters; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	return acc
}

// spinSink defeats dead-code elimination of spinChunk.  It is atomic
// because Real-mode ranks spin concurrently.
var spinSink atomic.Int64

// Calibrate measures the spin-loop rate.  It is called automatically on the
// first Spin but may be invoked explicitly (e.g. at world start) so the
// measurement does not perturb the first timed region.  This mirrors the
// "configuration phase during installation" of the original ATS, where the
// iterations-per-second constant is determined by calibration programs.
func Calibrate() {
	calOnce.Do(func() {
		const probe = 1 << 21
		// Warm up, then time a probe batch.
		spinSink.Add(spinChunk(probe / 4))
		start := time.Now()
		spinSink.Add(spinChunk(probe))
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		itersPerNs = float64(probe) / float64(elapsed.Nanoseconds())
		if itersPerNs <= 0 {
			itersPerNs = 1
		}
	})
}

// Spin busy-waits for approximately d seconds without calling time functions
// in the hot loop (the paper's do_work avoids timer syscalls for the same
// reason).  Accuracy is on the order of the calibration error; long spins
// re-check the wall clock at coarse intervals to bound drift.
func Spin(d float64) {
	if d <= 0 {
		return
	}
	Calibrate()
	deadline := time.Now().Add(time.Duration(d * float64(time.Second)))
	remainingNs := d * 1e9
	for remainingNs > 0 {
		chunkNs := remainingNs
		const maxChunkNs = 2e6 // re-check the clock every ~2ms
		if chunkNs > maxChunkNs {
			chunkNs = maxChunkNs
		}
		spinSink.Add(spinChunk(int64(chunkNs * itersPerNs)))
		remainingNs = float64(time.Until(deadline).Nanoseconds())
	}
}
