// Package campaign is the throughput-oriented execution layer of the test
// suite.  Every paper-facing procedure — the Fig 3.2–3.5 sweeps, the §1
// positive/negative correctness tables, the conformance fuzzer, regression
// baselining — is a campaign: many independent world→trace→analyze jobs
// whose *aggregate* wall-clock time, not single-run latency, is what the
// ROADMAP's "as fast as the hardware allows" target means at production
// scale.
//
// The package runs such job sets on a bounded worker pool while keeping
// the sequential contract callers rely on:
//
//   - Results are collected (Run) or delivered (Stream) in job-index
//     order, so output bytes, profile-sink emission order, and therefore
//     content-addressed profile hashes are identical for any worker count.
//   - The first failure is reported as the failure of the *lowest* failing
//     index, matching what a sequential loop that stops at the first error
//     would have surfaced.
//   - A panic in one job is confined to that job (converted into its
//     error); it does not poison the pool or abort sibling jobs.  So is
//     a job that ends its goroutine with runtime.Goexit.
//
// Jobs must be independent: they may not communicate, and their work must
// not depend on execution order.  Everything the suite runs through this
// pool satisfies that by construction — each job owns a fresh mpi/omp
// world in virtual time.
package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a campaign.
type Options struct {
	// Workers bounds the number of concurrently running jobs.  Zero (the
	// common case) selects the process-wide default (DefaultWorkers);
	// negative values are treated as 1.
	Workers int
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w == 0 {
		w = DefaultWorkers()
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// defaultWorkers holds the process-wide default worker count; zero means
// "derive from GOMAXPROCS at call time".
var defaultWorkers atomic.Int64

// DefaultWorkers returns the worker count used when Options.Workers is
// zero: the value installed with SetDefaultWorkers, or GOMAXPROCS.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers installs the process-wide default concurrency used by
// every campaign that does not set Options.Workers explicitly.  CLIs wire
// their -j flag here once instead of threading it through every layer;
// n <= 0 restores the GOMAXPROCS-derived default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Error is a job failure, annotated with the index of the job that failed.
type Error struct {
	// Index is the failing job's index in [0, n).
	Index int
	// Err is the job's error (for a panicking job, a PanicError).
	Err error
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("campaign: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying job error.
func (e *Error) Unwrap() error { return e.Err }

// PanicError wraps a recovered job panic.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// result carries one finished job through the collection stage.
type result[T any] struct {
	value T
	err   error
	done  bool
}

// pool coordinates the three roles of runPool — workers claiming job
// indices, workers recording finished results, and the single collector
// delivering them in strict index order.
//
// Every index below the lowest failure is claimed before it (claims
// ascend) and every claimed index is recorded (runJob records even a
// job that panics or exits its goroutine), so the collector never waits
// on an index that will not complete.
type pool[T any] struct {
	n int
	// next is the dispatch cursor; stopAt is an exclusive upper bound on
	// indices worth starting, lowered to the first failing index so a
	// campaign does not keep burning CPU on work whose results are
	// already unreachable.
	next   atomic.Int64
	stopAt atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	results []result[T]
}

func newPool[T any](n int) *pool[T] {
	p := &pool[T]{n: n, results: make([]result[T], n)}
	p.cond = sync.NewCond(&p.mu)
	p.stopAt.Store(int64(n))
	return p
}

// claim returns the next job index to start, or -1 when none remain
// (exhausted, or abandoned past the lowest known failure).
func (p *pool[T]) claim() int {
	i := int(p.next.Add(1) - 1)
	if i >= p.n || int64(i) >= p.stopAt.Load() {
		return -1
	}
	return i
}

// record stores one finished job and wakes the collector.  A failure
// lowers stopAt to this index if it is the lowest seen so far.
func (p *pool[T]) record(i int, v T, err error) {
	if err != nil {
		for {
			cur := p.stopAt.Load()
			if int64(i) >= cur || p.stopAt.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}
	p.mu.Lock()
	p.results[i] = result[T]{value: v, err: err, done: true}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// collect invokes deliver(i, res) in strict index order as a contiguous
// prefix of jobs completes.  deliver runs on the collecting goroutine
// only, never concurrently.  The lowest failing index wins; anything
// producers completed beyond it is discarded unseen.
func (p *pool[T]) collect(deliver func(int, T) error) error {
	var firstErr *Error
	p.mu.Lock()
	for i := 0; i < p.n; i++ {
		for !p.results[i].done {
			p.cond.Wait()
		}
		r := &p.results[i]
		if r.err != nil {
			firstErr = &Error{Index: i, Err: r.err}
			break
		}
		p.mu.Unlock()
		err := deliver(i, r.value)
		p.mu.Lock()
		if err != nil {
			firstErr = &Error{Index: i, Err: err}
			break
		}
	}
	// Stop producers from claiming anything further before returning.
	p.stopAt.Store(-1)
	p.mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return nil
}

// runPool executes jobs 0..n-1 on w workers and invokes deliver(i, res)
// in strict index order as a contiguous prefix of jobs completes.  When a
// job fails, indices above the lowest known failure are abandoned
// (workers stop claiming them), matching the prefix a sequential loop
// would have executed; in-flight jobs run to completion but their results
// past the failure are discarded.
func runPool[T any](n int, opt Options, job func(int) (T, error), deliver func(int, T) error) error {
	if n <= 0 {
		return nil
	}
	workers := opt.workers(n)
	p := newPool[T](n)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := p.claim()
				if i < 0 {
					return
				}
				p.runJob(job, i)
			}
		}()
	}

	err := p.collect(deliver)
	// Let any straggling workers finish before returning so no job is
	// still touching caller state after the campaign reports completion.
	wg.Wait()
	return err
}

// errGoexit is the error of a job that ended its goroutine without
// returning (runtime.Goexit, as t.FailNow does).
var errGoexit = errors.New("job exited its goroutine without returning")

// runJob invokes one job and records its result.  A panic becomes the
// job's PanicError; a Goexit records errGoexit before the worker
// goroutine dies, so the collector is never left waiting on it.
func (p *pool[T]) runJob(job func(int) (T, error), i int) {
	var v T
	err := errGoexit
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
		p.record(i, v, err)
	}()
	v, err = job(i)
}

// Run executes n independent jobs on a bounded pool and returns their
// results indexed by job — element i is job i's value, regardless of
// completion order.  On failure it returns the error of the lowest
// failing index (wrapped in *Error); the returned slice is nil.
func Run[T any](n int, opt Options, job func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := runPool(n, opt, job, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream executes n independent jobs on a bounded pool and calls sink in
// strict job-index order with each result — the streaming analogue of a
// sequential loop, with the loop bodies overlapped.  sink is never called
// concurrently and never out of order, so writers that produce
// byte-identical sequential output stay byte-identical at any worker
// count.  A sink error stops the campaign and is returned wrapped in
// *Error with the job index it occurred at.
func Stream[T any](n int, opt Options, job func(int) (T, error), sink func(int, T) error) error {
	return runPool(n, opt, job, sink)
}
