package xctx

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

func newCtx(traced bool) *Ctx {
	loc := trace.Location{Rank: 0, Thread: 0}
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(nil)
	}
	return New(vtime.NewClock(vtime.Virtual, time.Now()), rec, work.NewRNG(1), loc)
}

func TestWorkAdvancesClock(t *testing.T) {
	c := newCtx(false)
	c.Work(0.5)
	c.Work(0.25)
	if c.Now() != 0.75 {
		t.Errorf("clock = %v, want 0.75", c.Now())
	}
}

func TestEnterExitRecordsEvents(t *testing.T) {
	c := newCtx(true)
	c.Enter("a")
	c.Work(1)
	c.Record(trace.Event{Kind: trace.KindMarker, Time: c.Now()})
	c.Exit()
	if c.TB.Len() != 3 {
		t.Errorf("events = %d, want 3", c.TB.Len())
	}
}

func TestUntracedIsNoop(t *testing.T) {
	c := newCtx(false)
	c.Enter("a") // must not panic on nil buffer
	c.Record(trace.Event{Kind: trace.KindMarker})
	c.Exit()
}

func TestForkThreadNumbering(t *testing.T) {
	c := newCtx(true)
	a := c.Fork()
	b := c.Fork()
	nested := a.Fork()
	ids := map[int32]bool{c.Loc.Thread: true}
	for _, x := range []*Ctx{a, b, nested} {
		if ids[x.Loc.Thread] {
			t.Errorf("duplicate thread id %d", x.Loc.Thread)
		}
		ids[x.Loc.Thread] = true
		if x.Loc.Rank != c.Loc.Rank {
			t.Errorf("fork changed rank: %v", x.Loc)
		}
	}
}

func TestForkInheritsClockAndPath(t *testing.T) {
	c := newCtx(true)
	c.Work(2)
	c.Enter("outer")
	c.Enter("inner")
	child := c.Fork()
	if child.Now() != 2 {
		t.Errorf("child clock = %v, want 2", child.Now())
	}
	// Child events carry the inherited path.
	child.Enter("leaf")
	child.Exit()
	tr := trace.Merge(child.TB)
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindEnter {
			if got := tr.PathString(ev.Path); got != "outer/inner/leaf" {
				t.Errorf("child path = %q, want outer/inner/leaf", got)
			}
		}
	}
	c.Exit()
	c.Exit()
}

func TestForkedRNGIndependent(t *testing.T) {
	c := newCtx(false)
	a, b := c.Fork(), c.Fork()
	same := 0
	for i := 0; i < 32; i++ {
		if a.RNG.Next() == b.RNG.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked RNG streams overlap (%d equal draws)", same)
	}
}
