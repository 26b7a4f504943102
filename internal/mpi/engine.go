package mpi

import (
	"fmt"

	"repro/internal/vtime"
)

// Engine selects the rank-execution strategy of a Virtual-mode World run.
// The clock mode picks the engine: Virtual mode runs on the event engine
// and Real mode on goroutines.  Options.Engine exists only so the
// cross-engine differential (engine_diff_test.go, conformance.DiffEngines)
// can run Virtual mode on the goroutine engine as its test reference.
//
// The event engine drives ranks as resumable state machines from a
// central virtual-clock event queue: exactly one rank steps at a time,
// blocking operations park the rank's goroutine and hand control back to
// the scheduler, and wildcard receives are resolved at event-queue
// quiescence instead of by polling.  It scales to 10⁴–10⁵ ranks in one
// process, because no rank ever spins and scheduler state is
// O(ranks + pending events).
//
// The goroutine engine runs every rank as a free-running goroutine with
// condition-variable blocking and the spoiler poll loop for wildcard
// receives.  It is the only engine for Real (wall-clock) mode, where
// genuine host parallelism is the point, and the Virtual-mode reference
// the event engine's traces are byte-compared against.
type Engine uint8

const (
	// EngineEvent is the single-stepped event-queue scheduler, the zero
	// value (Virtual mode only; Real-mode runs use goroutines).
	EngineEvent Engine = iota
	// EngineGoroutine is goroutine-per-rank execution.
	EngineGoroutine
)

// String names the engine for errors and logs.
func (e Engine) String() string {
	switch e {
	case EngineEvent:
		return "event"
	case EngineGoroutine:
		return "goroutine"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// EngineVersion is the observable-output version of the execution
// engines: the invalidation epoch recorded in content-addressed
// result-cache keys (internal/rescache).  Bump it whenever a change could
// alter a run's observable output — serialized traces, profile hashes,
// error text surfaced into cached outcomes — even if the change is
// believed equivalent; a stale bump costs one cold sweep, a missed bump
// serves wrong results forever.
const EngineVersion = 1

// eventMode reports whether a run with the given engine option and clock
// mode executes on the event engine.  The event scheduler is meaningless
// under wall-clock time — there is no virtual clock to order the event
// queue by — so Real mode always runs on goroutines.
func eventMode(e Engine, mode vtime.Mode) bool {
	return mode != vtime.Real && e == EngineEvent
}
