package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
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

func TestWriteJSON(t *testing.T) {
	b := NewBuffer(loc(2, 1))
	b.Enter("region", 0)
	b.Record(Event{Time: 0.5, Kind: KindSend, Peer: 3, Tag: 7, Bytes: 64, Match: 9})
	b.Record(Event{Time: 0.8, Aux: 0.1, Kind: KindColl, Coll: CollBcast, Root: 0, Match: 4})
	b.Exit(1)
	tr := Merge(b)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if m["kind"] == "send" {
			if m["peer"].(float64) != 3 || m["bytes"].(float64) != 64 {
				t.Errorf("send line wrong: %v", m)
			}
			if m["path"] != "region" {
				t.Errorf("send path = %v", m["path"])
			}
		}
		if m["kind"] == "coll" && m["coll"] != "MPI_Bcast" {
			t.Errorf("coll line wrong: %v", m)
		}
	}
	if lines != 4 {
		t.Errorf("got %d JSON lines, want 4", lines)
	}
}
