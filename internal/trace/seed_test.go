package trace

import (
	"io"
	"strings"
	"testing"
)

func TestStackNames(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	if names := b.StackNames(); len(names) != 0 {
		t.Errorf("fresh buffer stack = %v", names)
	}
	b.Enter("a", 0)
	b.Enter("b", 1)
	b.Enter("c", 2)
	got := b.StackNames()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("stack = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stack[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	b.Exit(3)
	if got := b.StackNames(); len(got) != 2 || got[1] != "b" {
		t.Errorf("after exit: %v", got)
	}
	var nilBuf *Buffer
	if nilBuf.StackNames() != nil {
		t.Error("nil buffer returned a stack")
	}
}

func TestSeedInheritsPath(t *testing.T) {
	child := NewBuffer(loc(0, 1))
	child.Seed([]string{"main", "phase"})
	child.Enter("leaf", 1)
	child.Record(Event{Time: 1.5, Kind: KindMarker})
	child.Exit(2)
	tr := Merge(child)
	for _, ev := range tr.Events {
		if got := tr.PathString(ev.Path); !strings.HasPrefix(got, "main/phase") {
			t.Errorf("event path %q lacks seeded prefix", got)
		}
	}
	// Depth excludes seeded frames.
	if child.Depth() != 0 {
		t.Errorf("depth = %d after balanced enter/exit", child.Depth())
	}
}

func TestSeedGuards(t *testing.T) {
	// Seeded frames must not be poppable by Exit.
	b := NewBuffer(loc(0, 0))
	b.Seed([]string{"x"})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Exit into seeded frames did not panic")
			}
		}()
		b.Exit(1)
	}()
	// Seeding a used buffer is a programming error.
	b2 := NewBuffer(loc(0, 0))
	b2.Enter("a", 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Seed on non-fresh buffer did not panic")
			}
		}()
		b2.Seed([]string{"x"})
	}()
	// Nil buffer: no-op.
	var nb *Buffer
	nb.Seed([]string{"x"})
}

// TestSeedAfterSpillPanics: a streamed buffer whose events have all been
// spilled, with its stack balanced again, is still not fresh.
func TestSeedAfterSpillPanics(t *testing.T) {
	w := NewChunkWriterTo(io.Discard, 2)
	b := NewBuffer(loc(0, 0))
	w.Attach(b)
	b.Enter("a", 0)
	b.Exit(1) // the second event spills the frame
	if b.Len() != 2 {
		t.Fatalf("Len = %d after spilling, want 2 recorded events", b.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Seed on a spilled buffer did not panic")
			}
		}()
		b.Seed([]string{"x"})
	}()
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	b.Release()
}
