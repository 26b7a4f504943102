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
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// stressBody mixes every blocking-operation class so parked/ready
// transitions of all kinds interleave: wildcard receives, directed
// receives, rendezvous sends, nonblocking completion, collectives, and a
// communicator split.
func stressBody(c *Comm) {
	buf := AllocBuf(TypeDouble, 8)
	defer FreeBuf(buf)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	for round := 0; round < 3; round++ {
		c.Sendrecv(buf, next, 1, buf, prev, 1)
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				c.Recv(buf, AnySource, 2)
			}
		} else {
			c.Work(float64(c.Rank()) * 1e-5)
			c.Ssend(buf, 0, 2)
		}
		r := c.Irecv(buf, prev, 3)
		c.Wait(c.Isend(buf, next, 3))
		c.Wait(r)
		c.Allreduce(buf, buf, OpSum)
	}
	sub := c.Split(c.Rank()%2, c.Rank())
	sub.Barrier()
	c.Barrier()
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

// TestEventEngineSingleStepInvariant instruments a run to prove at most
// one rank executes user code at any instant under the event engine.
func TestEventEngineSingleStepInvariant(t *testing.T) {
	var inBody atomic.Int32
	var violations atomic.Int32
	_, err := Run(Options{Procs: 16, Engine: EngineEvent}, func(c *Comm) {
		for round := 0; round < 4; round++ {
			if inBody.Add(1) > 1 {
				violations.Add(1)
			}
			c.Work(1e-5)
			inBody.Add(-1)
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d instants with more than one rank running", v)
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
