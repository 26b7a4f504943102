package omp

import (
	"fmt"
	"sort"
	"sync"
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
	// Sink, when non-nil, streams trace events out of the run as it
	// executes (see mpi.Options.Sink): buffers spill chunk frames while
	// recording and Run returns a nil trace.  Ignored when Untraced.
	Sink trace.Sink
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
	streaming := opt.Sink != nil && !opt.Untraced
	loc := trace.Location{Rank: 0, Thread: 0}
	var tb *trace.Buffer
	if !opt.Untraced {
		tb = trace.NewBuffer(loc)
		if streaming {
			opt.Sink.Attach(tb)
		}
	}
	clock := vtime.NewClock(opt.Mode, time.Now())
	if opt.Perturb != nil && opt.Mode == vtime.Virtual {
		clock.SetPerturber(opt.Perturb.Executor(0, 1))
	}
	ctx := xctx.New(clock, tb, work.NewRNG(opt.Seed), loc)

	var mu sync.Mutex
	var adopted []*trace.Buffer
	var sinkErr error
	if streaming {
		// Thread buffers stream: attached at fork, flushed and recycled
		// at the join (see mpi.Options.Sink).
		ctx.Spill = opt.Sink.Attach
		ctx.Adopt = func(b *trace.Buffer) {
			if b == nil {
				return
			}
			mu.Lock()
			if err := opt.Sink.Finish(b); err != nil && sinkErr == nil {
				sinkErr = err
			}
			mu.Unlock()
			b.Release()
		}
	} else if !opt.Untraced {
		ctx.Adopt = func(b *trace.Buffer) {
			mu.Lock()
			adopted = append(adopted, b)
			mu.Unlock()
		}
	}

	var runErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("omp: run panicked: %v", r)
			}
		}()
		body(ctx, Options{Threads: opt.Threads, Cost: opt.Cost})
	}()

	if opt.Untraced {
		return nil, runErr
	}
	if streaming {
		// Flush the master buffer's tail (all team threads joined before
		// the body returned, so every other buffer is already finished).
		if err := opt.Sink.Finish(tb); err != nil && runErr == nil && sinkErr == nil {
			sinkErr = err
		}
		tb.Release()
		if runErr == nil {
			runErr = sinkErr
		}
		return nil, runErr
	}
	mu.Lock()
	defer mu.Unlock()
	sort.Slice(adopted, func(i, j int) bool {
		if adopted[i].Loc.Rank != adopted[j].Loc.Rank {
			return adopted[i].Loc.Rank < adopted[j].Loc.Rank
		}
		return adopted[i].Loc.Thread < adopted[j].Loc.Thread
	})
	buffers := append([]*trace.Buffer{tb}, adopted...)
	tr := trace.Merge(buffers...)
	// Merge consumes the buffers (it remaps their event ids in place), so
	// they must be released now, to be recycled for the next run (all
	// team threads joined before the body returned).
	for _, b := range buffers {
		b.Release()
	}
	return tr, runErr
}
