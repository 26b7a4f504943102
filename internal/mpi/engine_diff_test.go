package mpi

// Engine differential tests over hand-written communication bodies: the
// mpi-level half of the engine differential (the conformance half sweeps
// generated cases; see internal/conformance/diff.go).  Each body targets a
// scheduler mechanism with a known divergence risk — wildcard resolution
// order, rendezvous handshakes, nonblocking completion, communicator
// splits — and must serialize to byte-identical ATS1 traces on both
// engines.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/distr"
)

// diffEngines runs body at the given scale on both engines and
// byte-compares the serialized traces.
func diffEngines(t *testing.T, procs int, body func(c *Comm)) {
	t.Helper()
	ser := func(eng Engine) []byte {
		t.Helper()
		tr, err := Run(Options{Procs: procs, Engine: eng}, body)
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		var buf bytes.Buffer
		if _, err := tr.Write(&buf); err != nil {
			t.Fatalf("engine %s: serialize: %v", eng, err)
		}
		return buf.Bytes()
	}
	ev, gr := ser(EngineEvent), ser(EngineGoroutine)
	if !bytes.Equal(ev, gr) {
		i, n := 0, len(ev)
		if len(gr) < n {
			n = len(gr)
		}
		for i < n && ev[i] == gr[i] {
			i++
		}
		t.Fatalf("traces diverge at byte %d (event %dB, goroutine %dB)", i, len(ev), len(gr))
	}
}

// TestEngineDiffWildcard stresses AnySource resolution: a sink rank
// draining staggered senders must pick messages in virtual-arrival order
// on both engines, including the ties broken by sender rank.
func TestEngineDiffWildcard(t *testing.T) {
	var got []int
	diffEngines(t, 6, func(c *Comm) {
		buf := AllocBuf(TypeInt, 1)
		defer FreeBuf(buf)
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				got = append(got, c.Recv(buf, AnySource, 7).Source)
			}
		} else {
			c.Work(float64(c.Rank()%3) * 1e-4) // staggered, with ties
			c.Send(buf, 0, 7)
		}
	})
	// Senders start at 0 (rank 3), 1e-4 (ranks 1, 4) and 2e-4 (ranks 2,
	// 5); equal arrivals go to the lower rank.  diffEngines ran the body
	// once per engine.
	want := []int{3, 1, 4, 2, 5}
	if !reflect.DeepEqual(got, append(want, want...)) {
		t.Fatalf("AnySource order (event, then goroutine) = %v; want %v twice", got, want)
	}
}

// TestEngineWildcardQuiescenceOrder pins AnySource resolution in closed
// form on both engines.  Rank 2's message to rank 0 (sent at 1e-2) is
// queued before rank 0's receives are granted, but rank 1 — clock behind
// that arrival, rank 2's first message still unconsumed — can yet answer
// earlier, and does: a scheduler that ignores such spoilers hands rank 0
// rank 2's message first.
func TestEngineWildcardQuiescenceOrder(t *testing.T) {
	for _, eng := range []Engine{EngineEvent, EngineGoroutine} {
		var got []int
		_, err := Run(Options{Procs: 3, Engine: eng}, func(c *Comm) {
			buf := AllocBuf(TypeInt, 1)
			defer FreeBuf(buf)
			switch c.Rank() {
			case 0:
				c.Work(1e-3)
				got = append(got, c.Recv(buf, AnySource, 0).Source)
				got = append(got, c.Recv(buf, AnySource, 0).Source)
			case 1:
				c.Recv(buf, AnySource, 0)
				c.Send(buf, 0, 0)
			case 2:
				c.Send(buf, 1, 0)
				c.Work(1e-2)
				c.Send(buf, 0, 0)
			}
		})
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if want := []int{1, 2}; !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %s: AnySource order = %v; want %v", eng, got, want)
		}
	}
}

// TestEngineDiffWildcardMutual drives the mutual-wait shape the goroutine
// engine escapes with its poll cap and the event engine with a forced
// grant at quiescence: both ranks block in AnySource receives with
// messages already queued on each side.
func TestEngineDiffWildcardMutual(t *testing.T) {
	diffEngines(t, 4, func(c *Comm) {
		buf := AllocBuf(TypeInt, 1)
		defer FreeBuf(buf)
		partner := c.Rank() ^ 1
		c.Send(buf, partner, 3)
		c.Recv(buf, AnySource, 3)
	})
}

// TestEngineDiffProbe covers Probe followed by a directed receive.
func TestEngineDiffProbe(t *testing.T) {
	diffEngines(t, 5, func(c *Comm) {
		buf := AllocBuf(TypeDouble, 4)
		defer FreeBuf(buf)
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				st := c.Probe(AnySource, 9)
				c.Recv(buf, st.Source, 9)
			}
		} else {
			c.Work(float64(c.Size()-c.Rank()) * 5e-5)
			c.Send(buf, 0, 9)
		}
	})
}

// TestEngineDiffRendezvous exercises the parked-sender ack path: Ssend
// forces the rendezvous protocol regardless of size, in a ring so every
// rank is both a parked sender and the acking receiver.
func TestEngineDiffRendezvous(t *testing.T) {
	diffEngines(t, 4, func(c *Comm) {
		sb := AllocBuf(TypeByte, 64)
		rb := AllocBuf(TypeByte, 64)
		defer FreeBuf(sb)
		defer FreeBuf(rb)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		if c.Rank()%2 == 0 {
			c.Ssend(sb, next, 1)
			c.Recv(rb, prev, 1)
		} else {
			c.Recv(rb, prev, 1)
			c.Ssend(sb, next, 1)
		}
	})
}

// TestEngineDiffRendezvousLarge sends above the eager threshold, taking
// the rendezvous path through standard Send, with the sender racing ahead
// so the receiver's ack arrives while the sender is parked in Wait.
func TestEngineDiffRendezvousLarge(t *testing.T) {
	diffEngines(t, 3, func(c *Comm) {
		big := AllocBuf(TypeByte, 1<<16) // past EagerThreshold
		defer FreeBuf(big)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		if c.Rank() == 0 {
			c.Send(big, next, 2)
			c.Recv(big, prev, 2)
		} else {
			c.Work(1e-4)
			c.Recv(big, prev, 2)
			c.Send(big, next, 2)
		}
	})
}

// TestEngineDiffNonblocking covers Isend/Irecv with out-of-order Waits
// and an already-acked completion.
func TestEngineDiffNonblocking(t *testing.T) {
	diffEngines(t, 4, func(c *Comm) {
		a := AllocBuf(TypeInt, 8)
		b := AllocBuf(TypeInt, 8)
		defer FreeBuf(a)
		defer FreeBuf(b)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		rs := c.Irecv(a, prev, 4)
		rr := c.Isend(b, next, 4)
		c.Work(2e-5)
		c.Wait(rs)
		c.Wait(rr)
	})
}

// TestEngineDiffSendrecv covers the combined exchange in a ring.
func TestEngineDiffSendrecv(t *testing.T) {
	diffEngines(t, 5, func(c *Comm) {
		sb := AllocBuf(TypeDouble, 2)
		rb := AllocBuf(TypeDouble, 2)
		defer FreeBuf(sb)
		defer FreeBuf(rb)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		c.Sendrecv(sb, next, 5, rb, prev, 5)
	})
}

// TestEngineDiffCart runs a 2D halo exchange over a Cartesian topology.
func TestEngineDiffCart(t *testing.T) {
	diffEngines(t, 6, func(c *Comm) {
		ct := c.CartCreate([]int{3, 2}, []bool{true, true})
		sb := AllocBuf(TypeDouble, 16)
		rb := AllocBuf(TypeDouble, 16)
		defer FreeBuf(sb)
		defer FreeBuf(rb)
		for dim := 0; dim < 2; dim++ {
			for _, disp := range []int{1, -1} {
				src, dst := ct.Shift(dim, disp)
				ct.SendrecvNeighbor(sb, dst, 6+dim, rb, src, 6+dim)
			}
		}
	})
}

// TestEngineDiffPatterns runs the paper's §3.1.4 built-in patterns in all
// flavors (blocking, Ssend, Isend).
func TestEngineDiffPatterns(t *testing.T) {
	diffEngines(t, 6, func(c *Comm) {
		buf := AllocBuf(TypeByte, 256)
		sb := AllocBuf(TypeByte, 256)
		defer FreeBuf(buf)
		defer FreeBuf(sb)
		for _, opt := range []PatternOpts{{}, {UseSsend: true}, {UseIsend: true, UseIrecv: true}} {
			PatternSendRecv(c, buf, DirUp, opt)
			PatternShift(c, sb, buf, DirDown, opt)
		}
	})
}

// TestEngineDiffSplit covers communicator splits with reversed key order
// and collectives inside the subcommunicators.
func TestEngineDiffSplit(t *testing.T) {
	diffEngines(t, 6, func(c *Comm) {
		sub := c.Split(c.Rank()%2, -c.Rank())
		buf := AllocBuf(TypeDouble, 4)
		out := AllocBuf(TypeDouble, 4)
		defer FreeBuf(buf)
		defer FreeBuf(out)
		sub.Allreduce(buf, out, OpSum)
		sub.Barrier()
		c.Bcast(buf, 0)
	})
}

// TestEngineDiffCollectives sweeps the collective surface on the world
// communicator with unequal arrival times.
func TestEngineDiffCollectives(t *testing.T) {
	diffEngines(t, 5, func(c *Comm) {
		n := c.Size()
		one := AllocBuf(TypeDouble, 2)
		all := AllocBuf(TypeDouble, 2*n)
		defer FreeBuf(one)
		defer FreeBuf(all)
		c.Work(float64(c.Rank()) * 3e-5)
		c.Barrier()
		c.Bcast(one, 1)
		c.Gather(one, all, 0)
		c.Scatter(all, one, 0)
		c.Allgather(one, all)
		c.Reduce(one, one, OpMax, n-1)
		c.Allreduce(one, one, OpSum)
		c.Scan(one, one, OpSum)
		c.Alltoall(all, all)
	})
}

// TestEngineDiffWork covers the distribution-driven work surface (the
// per-rank RNG streams must be consumed identically).
func TestEngineDiffWork(t *testing.T) {
	diffEngines(t, 4, func(c *Comm) {
		c.DoWork(distr.Linear, distr.Val2{Low: 1, High: 2}, 1e-4)
		c.Barrier()
		c.DoWork(distr.Cyclic2, distr.Val2{Low: 1, High: 3}, 5e-5)
		c.Barrier()
	})
}
