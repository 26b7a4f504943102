package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCollectsInIndexOrder(t *testing.T) {
	const n = 200
	out, err := Run(n, Options{Workers: 8}, func(i int) (int, error) {
		// Finish out of order on purpose.
		time.Sleep(time.Duration((n-i)%7) * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestStreamDeliversSequentially(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 2, 8, 64} {
		var seen []int
		err := Stream(n, Options{Workers: workers},
			func(i int) (int, error) { return i, nil },
			func(i int, v int) error {
				if v != i {
					return fmt.Errorf("index %d delivered value %d", i, v)
				}
				seen = append(seen, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: delivered %d of %d", workers, len(seen), n)
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d: delivery order broken at %d: got %d", workers, i, v)
			}
		}
	}
}

func TestErrorReportsLowestFailingIndex(t *testing.T) {
	// Several jobs fail; the campaign must surface the lowest index no
	// matter which failure a worker observes first.
	for _, workers := range []int{1, 3, 16} {
		_, err := Run(100, Options{Workers: workers}, func(i int) (int, error) {
			if i == 23 || i == 24 || i == 71 {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: error %v is not a *campaign.Error", workers, err)
		}
		if ce.Index != 23 {
			t.Fatalf("workers=%d: failure index %d, want 23", workers, ce.Index)
		}
	}
}

func TestStreamErrorStopsDelivery(t *testing.T) {
	var delivered []int
	err := Stream(50, Options{Workers: 4},
		func(i int) (int, error) {
			if i == 10 {
				return 0, errors.New("job failure")
			}
			return i, nil
		},
		func(i int, v int) error {
			delivered = append(delivered, i)
			return nil
		})
	var ce *Error
	if !errors.As(err, &ce) || ce.Index != 10 {
		t.Fatalf("expected failure at index 10, got %v", err)
	}
	// Exactly the sequential prefix 0..9 must have been delivered.
	if len(delivered) != 10 {
		t.Fatalf("delivered %v, want exactly 0..9", delivered)
	}
	for i, v := range delivered {
		if v != i {
			t.Fatalf("delivered %v, want exactly 0..9", delivered)
		}
	}
}

// TestPanicIsConfinedToItsJob: a job that panics, or ends its goroutine
// with runtime.Goexit, fails at its own index without stalling the
// collector or poisoning sibling jobs.
func TestPanicIsConfinedToItsJob(t *testing.T) {
	for _, tc := range []struct {
		name  string
		abort func()
		want  func(error) bool
	}{
		{"panic", func() { panic("job 31 exploded") },
			func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }},
		{"goexit", runtime.Goexit,
			func(err error) bool { return errors.Is(err, errGoexit) }},
	} {
		var completed atomic.Int64
		_, err := Run(64, Options{Workers: 8}, func(i int) (int, error) {
			if i == 31 {
				tc.abort()
			}
			completed.Add(1)
			return i, nil
		})
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %v is not a *campaign.Error", tc.name, err)
		}
		if ce.Index != 31 {
			t.Fatalf("%s: failure index %d, want 31", tc.name, ce.Index)
		}
		if !tc.want(err) {
			t.Fatalf("%s: error %v does not unwrap to the job's failure", tc.name, err)
		}
		// The pool must not have been poisoned: at minimum every job below
		// the failing index ran to completion.
		if completed.Load() < 31 {
			t.Fatalf("%s: only %d sibling jobs completed", tc.name, completed.Load())
		}
	}
}

func TestSinkErrorIsWrapped(t *testing.T) {
	sentinel := errors.New("sink rejected")
	err := Stream(10, Options{Workers: 2},
		func(i int) (int, error) { return i, nil },
		func(i int, v int) error {
			if i == 4 {
				return sentinel
			}
			return nil
		})
	var ce *Error
	if !errors.As(err, &ce) || ce.Index != 4 || !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want *Error{Index: 4} wrapping sentinel", err)
	}
}

func TestZeroAndTinyCampaigns(t *testing.T) {
	if err := Stream(0, Options{}, func(i int) (int, error) { return 0, nil },
		func(int, int) error { t.Fatal("sink called for empty campaign"); return nil }); err != nil {
		t.Fatal(err)
	}
	out, err := Run(1, Options{Workers: 16}, func(i int) (string, error) { return "only", nil })
	if err != nil || len(out) != 1 || out[0] != "only" {
		t.Fatalf("singleton campaign: %v %v", out, err)
	}
}

func TestDefaultWorkersOverride(t *testing.T) {
	old := DefaultWorkers()
	SetDefaultWorkers(3)
	if DefaultWorkers() != 3 {
		t.Fatalf("DefaultWorkers = %d, want 3", DefaultWorkers())
	}
	SetDefaultWorkers(0)
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d after reset", DefaultWorkers())
	}
	SetDefaultWorkers(old)
}

// TestStress hammers the pool with randomized job durations, sporadic
// errors and panics under the race detector: errors must carry the right
// index, successful campaigns must deliver everything in order, and no
// iteration may deadlock.
func TestStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(120)
		workers := 1 + rng.Intn(16)
		failAt := -1
		if rng.Intn(3) == 0 && n > 2 {
			failAt = rng.Intn(n)
		}
		panicAt := -1
		if rng.Intn(5) == 0 && n > 2 {
			panicAt = rng.Intn(n)
		}
		var delivered atomic.Int64
		err := Stream(n, Options{Workers: workers},
			func(i int) (int, error) {
				if rng := i % 13; rng == 0 {
					time.Sleep(time.Duration(i%5) * time.Microsecond)
				}
				if i == panicAt {
					panic(i)
				}
				if i == failAt {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i, nil
			},
			func(i int, v int) error {
				if int64(i) != delivered.Load() {
					return fmt.Errorf("out-of-order delivery: got %d, want %d", i, delivered.Load())
				}
				delivered.Add(1)
				return nil
			})
		wantFail := -1
		switch {
		case failAt >= 0 && panicAt >= 0:
			wantFail = min(failAt, panicAt)
		case failAt >= 0:
			wantFail = failAt
		case panicAt >= 0:
			wantFail = panicAt
		}
		if wantFail < 0 {
			if err != nil {
				t.Fatalf("round %d: unexpected error %v", round, err)
			}
			if delivered.Load() != int64(n) {
				t.Fatalf("round %d: delivered %d of %d", round, delivered.Load(), n)
			}
			continue
		}
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("round %d: error %v is not *campaign.Error", round, err)
		}
		if ce.Index != wantFail {
			t.Fatalf("round %d: failure index %d, want %d", round, ce.Index, wantFail)
		}
		if delivered.Load() != int64(wantFail) {
			t.Fatalf("round %d: delivered %d results before failure at %d", round, delivered.Load(), wantFail)
		}
	}
}
