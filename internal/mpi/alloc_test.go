package mpi

import "testing"

// TestEventEngineAllocsPerRank holds the event engine to an allocation
// budget: BenchmarkEventEngineRanks's world at 1024 ranks must stay at or
// below 22 allocations per rank.  What is left is per-rank set-up (proc,
// context, clock, mailbox, goroutine, buffer) and one message record per
// send; a per-step allocation in dispatch, a collective or the free list
// shows up here as several more per rank.
func TestEventEngineAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const procs, budget = 1024, 22
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		if err := runEngineBench(procs); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	per := allocs / procs
	t.Logf("%.1f allocs per rank", per)
	if per > budget {
		t.Fatalf("%.1f allocs per rank, budget %d", per, budget)
	}
}

// TestBytePoolSteadyStateAllocs pins that recycling a slab allocates
// nothing: the *[]byte box the pool stores travels with the slice, so
// putBytes does not box the slice header anew on every call.
func TestBytePoolSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, box := getBytes(100, false)
	putBytes(s, box)
	allocs := testing.AllocsPerRun(100, func() {
		s, box := getBytes(100, false)
		putBytes(s, box)
	})
	if allocs != 0 {
		t.Fatalf("get/put cycle allocates %v times, want 0", allocs)
	}
}

// TestMailboxRewindsWhenDrained pins that a drained mailbox queue
// rewinds: in a ping-pong each mailbox holds at most one message, so its
// backing array must stay small instead of growing past a dead prefix
// until the backlog compaction kicks in.
func TestMailboxRewindsWhenDrained(t *testing.T) {
	const msgs = 5000
	var maxCap [2]int
	_, err := Run(Options{Procs: 2, Untraced: true}, func(c *Comm) {
		buf := AllocBuf(TypeInt, 1)
		defer FreeBuf(buf)
		me, peer := c.Rank(), 1-c.Rank()
		mb := c.p.mb
		for i := 0; i < msgs; i++ {
			if i%2 == me {
				c.Send(buf, peer, 0)
				continue
			}
			c.Recv(buf, peer, 0)
			mb.mu.Lock()
			maxCap[me] = max(maxCap[me], cap(mb.q))
			mb.mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, c := range maxCap {
		if c > 4 {
			t.Errorf("rank %d mailbox grew to capacity %d during a ping-pong", rank, c)
		}
	}
}
