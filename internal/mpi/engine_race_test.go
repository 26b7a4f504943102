package mpi

// Stress tests for the event scheduler's concurrency discipline, designed
// to run under -race (the check job runs this package with -race): the
// scheduler claims that exactly one rank steps at a time and that the
// handoff channels provide all the happens-before edges the lockless heap
// mutation relies on.  Any violation of single-threaded dispatch is a
// data race on scheduler state, which the race detector turns into a hard
// failure here.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// stressBody mixes every blocking-operation class so parked/ready
// transitions of all kinds interleave: wildcard receives, directed
// receives, rendezvous sends, nonblocking completion, collectives, and a
// communicator split.
func stressBody(c *Comm) { stressSteps(c, func() {}) }

// stressSteps is stressBody calling step in the user code after every
// operation: each call runs after a possible park and before the rank's
// next blocking call, and the last one runs just before the rank
// finishes.
func stressSteps(c *Comm, step func()) {
	buf := AllocBuf(TypeDouble, 8)
	defer FreeBuf(buf)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	for round := 0; round < 3; round++ {
		c.Sendrecv(buf, next, 1, buf, prev, 1)
		step()
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				c.Recv(buf, AnySource, 2)
				step()
			}
		} else {
			c.Work(float64(c.Rank()) * 1e-5)
			step()
			c.Ssend(buf, 0, 2)
			step()
		}
		r := c.Irecv(buf, prev, 3)
		c.Wait(c.Isend(buf, next, 3))
		step()
		c.Wait(r)
		step()
		c.Allreduce(buf, buf, OpSum)
		step()
	}
	sub := c.Split(c.Rank()%2, c.Rank())
	step()
	sub.Barrier()
	step()
	c.Barrier()
	step()
}

// TestEventEngineConcurrentWorlds runs many event-engine worlds at once —
// the campaign.Run -j shape.  Worlds must be fully isolated: the only
// shared state is the buffer pool, and the traces must come out identical.
func TestEventEngineConcurrentWorlds(t *testing.T) {
	const workers = 8
	hashes := make([]string, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			tr, err := Run(Options{Procs: 12, Engine: EngineEvent}, stressBody)
			if err != nil {
				hashes[i] = "error: " + err.Error()
				return
			}
			hashes[i] = fmt.Sprintf("%d events", len(tr.Events))
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if hashes[i] != hashes[0] {
			t.Fatalf("world %d diverged: %s vs %s", i, hashes[i], hashes[0])
		}
	}
	if strings.HasPrefix(hashes[0], "error") {
		t.Fatal(hashes[0])
	}
}

// TestEventEngineMixedEnginesConcurrent interleaves event and goroutine
// worlds in one process, sharing the pooled buffers.
func TestEventEngineMixedEnginesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := EngineEvent
			if i%2 == 1 {
				eng = EngineGoroutine
			}
			if _, err := Run(Options{Procs: 8, Engine: eng}, stressBody); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestEventEngineStreamedConcurrent runs concurrent event-engine worlds
// that stream through chunk sinks: buffer adoption and spill recycling run
// on rank goroutines while the scheduler single-steps them.
func TestEventEngineStreamedConcurrent(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spool := fmt.Sprintf("%s/w%d.atsc", dir, i)
			w, err := trace.NewChunkWriter(spool, 256)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := Run(Options{Procs: 10, Engine: EngineEvent, Sink: w}, stressBody); err != nil {
				w.Abort()
				t.Error(err)
				return
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// The spools must replay: truncated or interleaved frames would fail
	// to open.
	for i := 0; i < 4; i++ {
		r, err := trace.OpenChunkFile(fmt.Sprintf("%s/w%d.atsc", dir, i))
		if err != nil {
			t.Fatalf("spool %d: %v", i, err)
		}
		r.Close()
	}
}

// TestEventEngineSingleStepInvariant instruments runs to prove at most
// one rank executes user code at any instant under the event engine: in
// a Barrier loop, and in stressBody's mix, where the run token is handed
// on from every park site (specific and wildcard receives, rendezvous
// acks, Irecv/Wait, collectives, split) and from finishing ranks.
func TestEventEngineSingleStepInvariant(t *testing.T) {
	var inBody atomic.Int32
	var violations atomic.Int32
	step := func() {
		if inBody.Add(1) > 1 {
			violations.Add(1)
		}
		runtime.Gosched() // give a wrongly concurrent rank the chance to overlap
		inBody.Add(-1)
	}
	bodies := []struct {
		name string
		body func(c *Comm)
	}{
		{"barrier", func(c *Comm) {
			for round := 0; round < 4; round++ {
				c.Work(1e-5)
				step()
				c.Barrier()
			}
		}},
		{"stress", func(c *Comm) { stressSteps(c, step) }},
	}
	for _, b := range bodies {
		t.Run(b.name, func(t *testing.T) {
			violations.Store(0)
			if _, err := Run(Options{Procs: 16, Engine: EngineEvent}, b.body); err != nil {
				t.Fatal(err)
			}
			if v := violations.Load(); v > 0 {
				t.Fatalf("%d instants with more than one rank running", v)
			}
		})
	}
}

// TestEventEngineAbortWhileParked fails a world while ranks wait at every
// kind of park site and pins that the failure unwinds them all: Run
// returns the right error and every rank goroutine and the scheduler
// goroutine exit.
func TestEventEngineAbortWhileParked(t *testing.T) {
	t.Run("rank panic", func(t *testing.T) {
		// Ranks 0–4 and 8 park first (lowest clocks); rank 5 parks behind
		// them until rank 6 sends, ranks 6 and 7 return from their bodies
		// into MPI_Finalize's barrier, and rank 5 then readies rank 0 and
		// panics.  At the failure rank 0 is ready, rank 1 waits in a
		// wildcard receive, 2, 3, 6 and 7 in a collective, 4 on a
		// rendezvous ack and 8 in a specific receive; rank 5 has finished.
		err := runCountingGoroutines(t, Options{Procs: 9, Timeout: 5 * time.Second}, func(c *Comm) {
			buf := AllocBuf(TypeInt, 1)
			defer FreeBuf(buf)
			switch c.Rank() {
			case 0:
				c.Recv(buf, 5, 5)
			case 1:
				c.Recv(buf, AnySource, 9)
			case 2, 3:
				c.Barrier()
			case 4:
				c.Ssend(buf, 8, 7)
			case 5:
				c.Work(1e-3)
				c.Recv(buf, 6, 11)
				c.Send(buf, 0, 5)
				want := []int32{evReady, evRecv, evColl, evColl, evAck, evRunning, evColl, evColl, evRecv}
				for i, p := range c.p.w.procs {
					if got := p.evState.Load(); got != want[i] {
						t.Errorf("rank %d in state %d at the panic, want %d", i, got, want[i])
					}
				}
				panic("kaboom")
			case 6:
				c.Send(buf, 5, 11)
			case 8:
				c.Recv(buf, 4, 3)
			}
		})
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 5 {
			t.Fatalf("error %v, want a RankError naming rank 5", err)
		}
	})
	t.Run("watchdog", func(t *testing.T) {
		// Rank 0 holds the run token in a real sleep past the watchdog
		// while the others wait in a barrier.
		err := runCountingGoroutines(t, Options{Procs: 4, Timeout: 50 * time.Millisecond}, func(c *Comm) {
			buf := AllocBuf(TypeInt, 1)
			defer FreeBuf(buf)
			switch c.Rank() {
			case 0:
				c.Recv(buf, 1, 1)
				for _, p := range c.p.w.procs[1:] {
					if got := p.evState.Load(); got != evColl {
						t.Errorf("rank %d in state %d during the sleep, want %d", p.rank, got, evColl)
					}
				}
				time.Sleep(200 * time.Millisecond)
			case 1:
				c.Send(buf, 0, 1)
			}
			c.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "watchdog timeout after 50ms") {
			t.Fatalf("error %v, want the watchdog timeout", err)
		}
	})
}

// runCountingGoroutines runs a world that must fail and checks that the
// goroutine count returns to its value before the run within a second.
func runCountingGoroutines(t *testing.T, opt Options, body func(c *Comm)) error {
	t.Helper()
	base := runtime.NumGoroutine()
	_, err := Run(opt, body)
	if err == nil {
		t.Fatal("world did not fail")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	return err
}

// TestEventEngineSchedulerWakes pins baton passing: in a ring + Barrier
// world with no wildcard receive the ready heap never drains while ranks
// are live, so the scheduler goroutine is handed the token a constant
// number of times, not once per step.
func TestEventEngineSchedulerWakes(t *testing.T) {
	wakes := func(procs int) int {
		var s *evScheduler
		_, err := Run(Options{Procs: procs, Untraced: true}, func(c *Comm) {
			if c.Rank() == 0 {
				s = c.p.w.sched
			}
			buf := AllocBuf(TypeDouble, 4)
			defer FreeBuf(buf)
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() - 1 + c.Size()) % c.Size()
			for round := 0; round < 3; round++ {
				c.Sendrecv(buf, next, 1, buf, prev, 1)
				c.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.wakes
	}
	small, large := wakes(16), wakes(1024)
	t.Logf("scheduler wakes: %d at 16 ranks, %d at 1024", small, large)
	if small != large || large > 1 {
		t.Fatalf("scheduler woke %d times at 16 ranks and %d at 1024, want the same constant <= 1", small, large)
	}
}

// TestRankErrorIdentity pins failure attribution: a rank panic must
// surface as a RankError naming the panicking rank, on both engines.
func TestRankErrorIdentity(t *testing.T) {
	for _, eng := range []Engine{EngineEvent, EngineGoroutine} {
		_, err := Run(Options{Procs: 4, Engine: eng}, func(c *Comm) {
			c.Barrier()
			if c.Rank() == 2 {
				panic("kaboom")
			}
			c.Barrier()
		})
		if err == nil {
			t.Fatalf("engine %s: no error from panicking world", eng)
		}
		var re *RankError
		if !errors.As(err, &re) {
			t.Fatalf("engine %s: error %v is not a RankError", eng, err)
		}
		if re.Rank != 2 {
			t.Fatalf("engine %s: RankError names rank %d, want 2", eng, re.Rank)
		}
		if !strings.Contains(re.Error(), "kaboom") {
			t.Fatalf("engine %s: RankError lost the panic value: %v", eng, re)
		}
	}
}

// TestEventEngineDeadlockNamesRanks pins the structural deadlock report:
// the event engine detects the cycle at quiescence (no watchdog wait) and
// names the blocked ranks and their wait kinds.
func TestEventEngineDeadlockNamesRanks(t *testing.T) {
	_, err := Run(Options{Procs: 3, Engine: EngineEvent}, func(c *Comm) {
		buf := AllocBuf(TypeInt, 1)
		defer FreeBuf(buf)
		c.Recv(buf, (c.Rank()+1)%c.Size(), 1) // cyclic wait, no sends
	})
	if err == nil {
		t.Fatal("no error from deadlocked world")
	}
	msg := err.Error()
	for _, want := range []string{"deadlock detected", "rank 0 in receive", "rank 1 in receive", "rank 2 in receive"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock error %q missing %q", msg, want)
		}
	}
}

// TestEventEngineScaleSmoke runs a 16k-rank composite in-process when
// ATS_SCALE_SMOKE is set (the CI scale-smoke job) — the tentpole's
// headline capability as a plain test.
func TestEventEngineScaleSmoke(t *testing.T) {
	if os.Getenv("ATS_SCALE_SMOKE") == "" {
		t.Skip("set ATS_SCALE_SMOKE=1 to run the 16384-rank smoke")
	}
	const procs = 16384
	tr, err := Run(Options{Procs: procs, Untraced: true, Engine: EngineEvent}, func(c *Comm) {
		buf := AllocBuf(TypeDouble, 4)
		defer FreeBuf(buf)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for round := 0; round < 3; round++ {
			c.Sendrecv(buf, next, 1, buf, prev, 1)
			c.Allreduce(buf, buf, OpSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
}
