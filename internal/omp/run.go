package omp

import (
	"fmt"
	"time"

	"repro/internal/perturb"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
	"repro/internal/xctx"
)

// RunOptions configures a standalone (non-MPI) OpenMP program run.
type RunOptions struct {
	// Threads is the team size for the top-level region started by the
	// body via Parallel (it is also recorded as the default Options).
	Threads int
	// Mode selects virtual (default) or real time.
	Mode vtime.Mode
	// Cost overrides construct overheads (zero selects DefaultCost).
	Cost CostModel
	// Untraced disables tracing.
	Untraced bool
	// Seed seeds the random generators (default 1).
	Seed uint64
	// Perturb injects deterministic timing disturbances into
	// Virtual-mode runs (the master context and every forked thread
	// inherit per-executor perturbers); nil leaves the run exactly
	// unperturbed.  See package perturb.
	Perturb *perturb.Model
	// Sink, when non-nil, is the writer the run spools into instead of
	// the in-memory spool it otherwise reads back as its trace (see
	// mpi.Options.Sink); Run then returns a nil trace.  Ignored when
	// Untraced.
	Sink *trace.ChunkWriter
}

// Run executes body as a standalone OpenMP-style program on a fresh
// master context (rank 0, thread 0) and returns the merged trace.  The
// body typically calls Parallel one or more times with the options it
// receives.  Panics in the body are returned as errors.
func Run(opt RunOptions, body func(ctx *xctx.Ctx, opt Options)) (*trace.Trace, error) {
	if opt.Threads <= 0 {
		opt.Threads = 4
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Mode == vtime.Real {
		vtime.Calibrate()
		work.CalibrateReal()
	}
	var rec *trace.Recorder
	if !opt.Untraced {
		rec = trace.NewRecorder(opt.Sink)
	}
	clock := vtime.NewClock(opt.Mode, time.Now())
	if opt.Perturb != nil && opt.Mode == vtime.Virtual {
		clock.SetPerturber(opt.Perturb.Executor(0, 1))
	}
	ctx := xctx.New(clock, rec, work.NewRNG(opt.Seed), trace.Location{Rank: 0, Thread: 0})

	var runErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("omp: run panicked: %v", r)
			}
		}()
		body(ctx, Options{Threads: opt.Threads, Cost: opt.Cost})
	}()

	// Every team thread joined, and handed its buffer back, before the
	// body returned; the master's buffer is the last.
	rec.Done(ctx.TB)
	tr, err := rec.Trace()
	if runErr == nil {
		runErr = err
	}
	return tr, runErr
}
