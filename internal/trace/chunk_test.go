package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fillBuffer records a deterministic mix of event kinds into b.  The same
// (rank, n) always produces the same events, so a spooled and an in-memory
// copy of a "run" can be built independently.
func fillBuffer(b *Buffer, rank int32, n int) {
	t := float64(rank) * 0.001
	b.Enter("main", t)
	for i := 0; i < n; i++ {
		t += 0.001
		b.Enter(fmt.Sprintf("region%d", i%3), t)
		t += 0.001
		b.Record(Event{Time: t, Kind: KindSend, Peer: rank + 1, CRank: rank, Tag: 7,
			Bytes: 1024, Match: uint64(rank)*1000 + uint64(i), Flags: FlagSync})
		t += 0.001
		b.Record(Event{Time: t, Aux: t - 0.0005, Kind: KindColl, Coll: CollBarrier,
			Root: -1, Comm: 0, Parts: 3, Match: uint64(i)})
		t += 0.001
		b.Exit(t)
	}
	t += 0.001
	b.Exit(t)
}

// buildBuffers creates nLocs deterministic buffers with distinct locations.
func buildBuffers(nLocs, events int) []*Buffer {
	bufs := make([]*Buffer, nLocs)
	for i := range bufs {
		bufs[i] = NewBuffer(Location{Rank: int32(i), Thread: 0})
		fillBuffer(bufs[i], int32(i), events)
	}
	return bufs
}

// buildSpool records the same events into a chunk spool at path, spilling
// every spillEvents events.
func buildSpool(t *testing.T, path string, nLocs, events, spillEvents int) {
	t.Helper()
	w, err := NewChunkWriter(path, spillEvents)
	if err != nil {
		t.Fatalf("NewChunkWriter: %v", err)
	}
	for i := 0; i < nLocs; i++ {
		b := NewBuffer(Location{Rank: int32(i), Thread: 0})
		w.Attach(b)
		fillBuffer(b, int32(i), events)
		if err := w.Finish(b); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		b.Release()
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// drainStream collects every event of st together with its resolved
// region/path strings.
type streamedEvent struct {
	ev     Event
	region string
	path   string
}

func drainStream(t *testing.T, st *Stream) []streamedEvent {
	t.Helper()
	var out []streamedEvent
	for {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if ev == nil {
			return out
		}
		se := streamedEvent{ev: *ev, path: st.PathString(ev.Path)}
		if ev.Kind == KindEnter || ev.Kind == KindExit {
			se.region = st.RegionName(ev.Region)
		}
		out = append(out, se)
	}
}

// compareToTrace checks that the streamed sequence equals the merged trace
// event for event.  Global region/path ids may legitimately differ between
// the two paths (interning order differs); names and rendered paths must
// not.
func compareToTrace(t *testing.T, want *Trace, got []streamedEvent) {
	t.Helper()
	if len(got) != len(want.Events) {
		t.Fatalf("streamed %d events, merged trace has %d", len(got), len(want.Events))
	}
	for i := range got {
		w, g := want.Events[i], got[i].ev
		gotRegion, gotPath := got[i].region, got[i].path
		wantRegion := ""
		if w.Kind == KindEnter || w.Kind == KindExit {
			wantRegion = want.RegionName(w.Region)
		}
		wantPath := want.PathString(w.Path)
		// Blank out the table ids before struct comparison.
		w.Region, g.Region = 0, 0
		w.Path, g.Path = 0, 0
		if w != g {
			t.Fatalf("event %d: streamed %+v, want %+v", i, g, w)
		}
		if gotRegion != wantRegion {
			t.Fatalf("event %d: region %q, want %q", i, gotRegion, wantRegion)
		}
		if gotPath != wantPath {
			t.Fatalf("event %d: path %q, want %q", i, gotPath, wantPath)
		}
	}
}

func TestChunkStreamMatchesMerge(t *testing.T) {
	const nLocs, events = 5, 13
	for _, spill := range []int{1, 4, 7, 1000} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.atsc")
			buildSpool(t, path, nLocs, events, spill)

			bufs := buildBuffers(nLocs, events)
			want := Merge(bufs...)

			r, err := OpenChunkFile(path)
			if err != nil {
				t.Fatalf("OpenChunkFile: %v", err)
			}
			if got := r.Events(); got != len(want.Events) {
				t.Fatalf("index events = %d, want %d", got, len(want.Events))
			}
			st, err := NewStream(r)
			if err != nil {
				t.Fatalf("NewStream: %v", err)
			}
			defer st.Close()
			got := drainStream(t, st)
			compareToTrace(t, want, got)

			if st.Events() != len(want.Events) {
				t.Errorf("Stream.Events = %d, want %d", st.Events(), len(want.Events))
			}
			if st.Duration() != want.Duration() {
				t.Errorf("Stream.Duration = %v, want %v", st.Duration(), want.Duration())
			}
			gr, gt := st.Shape()
			wr, wt := want.Shape()
			if gr != wr || gt != wt {
				t.Errorf("Stream.Shape = (%d,%d), want (%d,%d)", gr, gt, wr, wt)
			}
			if len(st.Locations()) != len(want.Locations) {
				t.Errorf("Stream.Locations = %v, want %v", st.Locations(), want.Locations)
			}
		})
	}
}

// TestMergeLeavesBuffersUnchanged: Merge only reads its buffers, so
// merging the same buffers twice gives equal traces, event for event and
// byte for byte once serialized.
func TestMergeLeavesBuffersUnchanged(t *testing.T) {
	bufs := buildBuffers(4, 9)
	first, second := Merge(bufs...), Merge(bufs...)
	if len(first.Events) != 4*(4*9+2) {
		t.Fatalf("merged %d events", len(first.Events))
	}
	if !reflect.DeepEqual(first.Events, second.Events) {
		t.Fatal("second Merge of the same buffers returned different events")
	}
	var a, b bytes.Buffer
	if _, err := first.Write(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("the two merges serialize to different bytes")
	}
	for _, b := range bufs {
		b.Release()
	}
}

// TestBufferSpillKeepsTables verifies that spilling clears only the pending
// frame: the intern tables (and therefore StackNames for OMP forks) survive.
func TestBufferSpillKeepsTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.atsc")
	w, err := NewChunkWriter(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(Location{Rank: 0, Thread: 0})
	w.Attach(b)
	b.Enter("outer", 0.1) // spill threshold 2 triggers inside Enter/Exit
	b.Enter("inner", 0.2)
	if b.pending != 0 {
		t.Fatalf("buffer holds %d pending events; expected spill to have drained it", b.pending)
	}
	if got := b.Len(); got != 2 {
		t.Fatalf("Len = %d after spilling; want the 2 events recorded", got)
	}
	if got := strings.Join(b.StackNames(), "/"); got != "outer/inner" {
		t.Fatalf("StackNames after spill = %q", got)
	}
	b.Exit(0.3)
	b.Exit(0.4)
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs := drainStream(t, st)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[1].path != "outer/inner" {
		t.Fatalf("inner enter path = %q", evs[1].path)
	}
}

// TestChunkWriterAtomic verifies the temp+rename contract: nothing lands
// at the target path before Close, and Abort leaves nothing behind.
func TestChunkWriterAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.atsc")
	w, err := NewChunkWriter(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(Location{})
	w.Attach(b)
	fillBuffer(b, 0, 8)
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spool visible at target path before Close (err=%v)", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spool missing after Close: %v", err)
	}

	w2, err := NewChunkWriter(filepath.Join(dir, "aborted.atsc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBuffer(Location{})
	w2.Attach(b2)
	fillBuffer(b2, 0, 8)
	w2.Abort()
	if err := w2.Finish(b2); err == nil {
		t.Fatal("Finish after Abort: expected error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "run.atsc" {
			t.Fatalf("leftover file %q after Abort", e.Name())
		}
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errSpoolFull = errors.New("spool full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errSpoolFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestChunkWriterToWriteError: a writer error is sticky.  Finish and Close
// report it, and the writer never writes again after it.
func TestChunkWriterToWriteError(t *testing.T) {
	for _, limit := range []int{0, chunkHeaderLen, 100} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			fw := &failingWriter{limit: limit}
			w := NewChunkWriterTo(fw, 4)
			b := NewBuffer(Location{})
			w.Attach(b)
			fillBuffer(b, 0, 8)
			if err := w.Finish(b); !errors.Is(err, errSpoolFull) {
				t.Fatalf("Finish error = %v, want %v", err, errSpoolFull)
			}
			if err := w.Close(); !errors.Is(err, errSpoolFull) {
				t.Fatalf("Close error = %v, want %v", err, errSpoolFull)
			}
		})
	}
}

// TestChunkWriterReusesSlabs: a finished buffer's frame bytes serve the
// next buffer attached, and Close drops the frames the writer holds.
func TestChunkWriterReusesSlabs(t *testing.T) {
	w := NewChunkWriterTo(io.Discard, 4)
	a := NewBuffer(Location{Rank: 0})
	w.Attach(a)
	fillBuffer(a, 0, 3)
	frame := &a.frame[:1][0]
	if err := w.Finish(a); err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(Location{Rank: 1})
	w.Attach(b)
	if len(b.frame) != 0 || &b.frame[:1][0] != frame {
		t.Fatal("second buffer did not take the finished buffer's frame bytes")
	}
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.frames != nil {
		t.Fatalf("closed writer holds %d frames", len(w.frames))
	}
}

// TestAttachRejectsRecordedBuffer: a buffer that recorded events before
// Attach would lose them to the writer's frame, so Attach fails the
// writer instead.
func TestAttachRejectsRecordedBuffer(t *testing.T) {
	w := NewChunkWriterTo(io.Discard, 4)
	b := NewBuffer(Location{Rank: 2})
	defer b.Release()
	b.Enter("main", 1)
	w.Attach(b)
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "after recording") {
		t.Fatalf("Close error = %v, want Attach after recording", err)
	}
}

// TestWarmSpillAllocs: once an attached buffer's frame, the writer's
// scratch and the location's intern tables are warm, recording a frame's
// worth of events and spilling it allocates only when the stream's frame
// index grows.  Amortised doubling makes that a dozen allocations over a
// thousand frames, which AllocsPerRun's per-run average rounds to zero.
func TestWarmSpillAllocs(t *testing.T) {
	w := NewChunkWriterTo(io.Discard, DefaultSpillEvents)
	b := NewBuffer(Location{Rank: 3, Thread: 1})
	w.Attach(b)
	b.Enter("main", 0)
	now := 0.0
	frame := func() {
		for i := 0; i < DefaultSpillEvents/2; i++ {
			now++
			b.Enter("work", now)
			now++
			b.Exit(now)
		}
	}
	frame()
	if allocs := testing.AllocsPerRun(1000, frame); allocs != 0 {
		t.Fatalf("a warm frame and spill allocate %.0f times", allocs)
	}
	b.Exit(now + 1)
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkWriterDuplicateLocation(t *testing.T) {
	w, err := NewChunkWriter(filepath.Join(t.TempDir(), "run.atsc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewBuffer(Location{Rank: 1})
	b := NewBuffer(Location{Rank: 1})
	w.Attach(a)
	w.Attach(b)
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "duplicate stream") {
		t.Fatalf("Close error = %v, want duplicate stream", err)
	}
}

func TestChunkWriterUnfinishedStream(t *testing.T) {
	w, err := NewChunkWriter(filepath.Join(t.TempDir(), "run.atsc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(NewBuffer(Location{Rank: 3}))
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "unfinished stream") {
		t.Fatalf("Close error = %v, want unfinished stream", err)
	}
}

// corruptChunk is one corruption scenario: a mutation of a valid spool
// that must be rejected either at open or while draining the stream.
func TestChunkCorruption(t *testing.T) {
	valid := func(t *testing.T) []byte {
		path := filepath.Join(t.TempDir(), "run.atsc")
		buildSpool(t, path, 2, 6, 4)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	cases := []struct {
		name   string
		mutate func(t *testing.T) []byte
	}{
		{"bad-magic", func(t *testing.T) []byte {
			b := valid(t)
			b[0] = 'X'
			return b
		}},
		{"bad-version", func(t *testing.T) []byte {
			b := valid(t)
			b[4] = 99
			return b
		}},
		{"bad-trailer-magic", func(t *testing.T) []byte {
			b := valid(t)
			b[len(b)-1] = 'Z'
			return b
		}},
		{"truncated", func(t *testing.T) []byte {
			b := valid(t)
			return b[:len(b)/2]
		}},
		{"too-short", func(t *testing.T) []byte {
			return []byte("ATSC")
		}},
		{"index-offset-beyond-file", func(t *testing.T) []byte {
			b := valid(t)
			binary.LittleEndian.PutUint64(b[len(b)-12:len(b)-4], uint64(len(b)))
			return b
		}},
		{"index-offset-into-header", func(t *testing.T) []byte {
			b := valid(t)
			binary.LittleEndian.PutUint64(b[len(b)-12:len(b)-4], 2)
			return b
		}},
		{"index-offset-misaligned", func(t *testing.T) []byte {
			// Points mid-frame: whatever parses must fail validation.
			b := valid(t)
			binary.LittleEndian.PutUint64(b[len(b)-12:len(b)-4], chunkHeaderLen+2)
			return b
		}},
		{"frame-garbage", func(t *testing.T) []byte {
			// Zero the first frame's body: the location varints and
			// counts no longer match the stream.
			b := valid(t)
			for i := chunkHeaderLen + 2; i < chunkHeaderLen+12; i++ {
				b[i] = 0xFF
			}
			return b
		}},
		// Rejected by the count-vs-size check, not by attempting to
		// allocate.
		{"huge-event-count", func(*testing.T) []byte { return hugeCountSpool() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := tc.mutate(t)
			forEachBacking(t, blob, func(t *testing.T, r *ChunkReader, err error) {
				if err != nil {
					return // rejected at open: good
				}
				defer r.Close()
				st, err := NewStream(r)
				if err != nil {
					return // rejected while priming: good
				}
				for {
					ev, err := st.Next()
					if err != nil {
						return // rejected while draining: good
					}
					if ev == nil {
						t.Fatal("corrupt spool drained without error")
					}
				}
			})
		})
	}
}

// forEachBacking opens the spool bytes blob through each reader backing
// in its own subtest: a file through OpenChunkFile, and memory through
// NewChunkReader.  Both must accept and reject exactly the same spools.
func forEachBacking(t *testing.T, blob []byte, check func(t *testing.T, r *ChunkReader, err error)) {
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "spool.atsc")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenChunkFile(path)
		check(t, r, err)
	})
	t.Run("memory", func(t *testing.T) {
		r, err := NewChunkReader(bytes.NewReader(blob), int64(len(blob)), Limits{})
		check(t, r, err)
	})
}

// TestChunkEmptyStreams: locations that never record events still appear
// in the stream's location set (they shape the grid), with no events.
func TestChunkEmptyStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.atsc")
	w, err := NewChunkWriter(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	idle := NewBuffer(Location{Rank: 0})
	busy := NewBuffer(Location{Rank: 1})
	w.Attach(idle)
	w.Attach(busy)
	fillBuffer(busy, 1, 3)
	if err := w.Finish(idle); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(busy); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := len(st.Locations()); got != 2 {
		t.Fatalf("locations = %d, want 2", got)
	}
	evs := drainStream(t, st)
	for _, se := range evs {
		if se.ev.Loc.Rank != 1 {
			t.Fatalf("event from idle location: %+v", se.ev)
		}
	}
	if ranks, _ := st.Shape(); ranks != 2 {
		t.Fatalf("Shape ranks = %d, want 2", ranks)
	}
}

// handSpool assembles a spool for the single location 0.0 from raw frame
// bodies, with an index that records events in total.
func handSpool(bodies [][]byte, events uint64) []byte {
	b := append(chunkMagic[:], chunkVersion)
	var refs []frameRef
	for _, body := range bodies {
		b = append(b, chunkTagFrame)
		b = binary.AppendUvarint(b, uint64(len(body)))
		refs = append(refs, frameRef{off: int64(len(b)), len: int64(len(body))})
		b = append(b, body...)
	}
	b = append(b, chunkTagEnd)
	indexOff := len(b)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, events)
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, fr := range refs {
		b = binary.AppendUvarint(b, uint64(fr.off))
		b = binary.AppendUvarint(b, uint64(fr.len))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	return append(b, chunkTrailerMagic[:]...)
}

// handFrame encodes a frame body for location 0.0 holding n events that
// enter and leave region "r" from time t0 on, followed by extra bytes.
// The first frame carries the region and its path.
func handFrame(first bool, t0 float64, n int, extra ...byte) []byte {
	b := binary.AppendVarint(nil, 0)
	b = binary.AppendVarint(b, 0)
	if first {
		b = binary.AppendUvarint(b, 1)
		b = appendString(b, "r")
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 0) // parent: root
		b = binary.AppendUvarint(b, 0) // region "r"
	} else {
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		ev := Event{Time: t0 + float64(i), Kind: KindEnter + Kind(i%2), Path: 1}
		b = appendEvent(b, &ev)
	}
	return append(b, extra...)
}

// TestChunkFrameTrailingBytes: bytes after a frame's last event are
// corruption wherever the frame sits and however many events precede
// them.
func TestChunkFrameTrailingBytes(t *testing.T) {
	const n = 18
	cases := []struct {
		name   string
		bodies [][]byte
		events uint64
	}{
		{"first frame", [][]byte{handFrame(true, 0, n, 0), handFrame(false, n, n)}, 2 * n},
		{"last frame", [][]byte{handFrame(true, 0, n), handFrame(false, n, n, 0)}, 2 * n},
		{"event-less frame", [][]byte{handFrame(true, 0, 0, 0), handFrame(false, 0, n)}, n},
		{"clean", [][]byte{handFrame(true, 0, n), handFrame(false, n, 0), handFrame(false, n, n)}, 2 * n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEachBacking(t, handSpool(tc.bodies, tc.events), func(t *testing.T, r *ChunkReader, err error) {
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewStream(r)
				if err == nil {
					defer st.Close()
					for {
						var ev *Event
						if ev, err = st.Next(); err != nil || ev == nil {
							break
						}
					}
				} else {
					r.Close()
				}
				if tc.name == "clean" {
					if err != nil || st.Events() != int(tc.events) {
						t.Fatalf("clean spool: err %v after %d events", err, st.Events())
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
					t.Fatalf("err = %v, want 1 trailing bytes", err)
				}
			})
		})
	}
}

// FuzzChunkReader feeds arbitrary bytes to the memory-backed ATSC reader
// and drains them through NewStream, once with Next and once with
// ForEach: neither may panic or deliver more events than the spool's
// index records, the two must agree on whether the spool is valid, and on
// a valid spool they must deliver the same events of each location, with
// the same region names and paths.
func FuzzChunkReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewChunkWriterTo(&valid, 4)
	for i := 0; i < 3; i++ {
		b := NewBuffer(Location{Rank: int32(i)})
		w.Attach(b)
		fillBuffer(b, int32(i), 5)
		if err := w.Finish(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	v1 := bytes.Clone(valid.Bytes())
	v1[chunkHeaderLen-1] = 1
	f.Add(v1) // the previous format version
	f.Add(handSpool([][]byte{handFrame(true, 0, 3), handFrame(false, 3, 2)}, 5))
	f.Add(handSpool([][]byte{handFrame(true, 0, 9)}, 4)) // frames hold more than the index
	// An enter at the root path, which has no region.
	root := handFrame(true, 0, 0)
	root = binary.AppendUvarint(root[:len(root)-1], 1)
	f.Add(handSpool([][]byte{appendEvent(root, &Event{Kind: KindEnter})}, 1))
	// Every field set, and a kind whose high bits take a field.
	all := handFrame(true, 0, 0)
	all = binary.AppendUvarint(all[:len(all)-1], 2)
	all = appendEvent(all, &Event{Time: 1, Aux: 0.5, Kind: KindColl, Coll: CollAllreduce, Flags: FlagRoot,
		Path: 1, Peer: 2, CRank: 3, Tag: 4, Bytes: 5, Match: 6, Root: 7, Comm: 8, Parts: 9, Region: 10})
	all = appendEvent(all, &Event{Time: 2, Kind: 0x10 | KindMarker, Path: 1})
	f.Add(handSpool([][]byte{all}, 2))
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := NewChunkReader(bytes.NewReader(blob), int64(len(blob)), Limits{})
		if err != nil {
			return
		}
		indexed := r.Events()
		st, err := NewStream(r)
		if err != nil {
			return
		}
		defer st.Close()
		// collect records what one stream delivers, by location, failing
		// past the index's count.  An event is recorded encoded, with the
		// global ids blanked, so NaN times compare equal to themselves.
		var n int
		var out map[Location][]string
		collect := func(st *Stream, ev *Event) {
			if n >= indexed {
				t.Fatalf("stream delivered event %d; the index records %d", n+1, indexed)
			}
			n++
			key := *ev
			key.Region, key.Path = 0, 0
			rec := string(appendEvent(nil, &key)) + "\x00" + st.PathString(ev.Path)
			if ev.Kind == KindEnter || ev.Kind == KindExit {
				rec += "\x00" + st.RegionName(ev.Region)
			}
			out[ev.Loc] = append(out[ev.Loc], rec)
		}
		out = map[Location][]string{}
		var nextErr error
		for {
			ev, err := st.Next()
			if err != nil || ev == nil {
				nextErr = err
				break
			}
			collect(st, ev)
		}
		merged, mergedN := out, n

		r2, err := NewChunkReader(bytes.NewReader(blob), int64(len(blob)), Limits{})
		if err != nil {
			t.Fatalf("second reader: %v", err)
		}
		st2, err := NewStream(r2)
		if err != nil {
			t.Fatalf("second stream: %v", err)
		}
		defer st2.Close()
		out, n = map[Location][]string{}, 0
		forEachErr := st2.ForEach(func(ev *Event) { collect(st2, ev) })
		if (nextErr == nil) != (forEachErr == nil) {
			t.Fatalf("Next ends with %v, ForEach with %v", nextErr, forEachErr)
		}
		if nextErr != nil {
			return
		}
		if n != mergedN || len(out) != len(merged) {
			t.Fatalf("ForEach delivered %d events of %d locations, Next %d of %d", n, len(out), mergedN, len(merged))
		}
		for loc, want := range merged {
			if !slices.Equal(out[loc], want) {
				t.Fatalf("location %v: ForEach delivered %q, Next %q", loc, out[loc], want)
			}
		}
	})
}

// TestStreamRendersPathsOnDemand: draining a stream renders no call-path
// string, however deep the call tree; PathString renders on request.  A
// few kilobytes of spool describing a deep chain of long region names
// would otherwise render gigabytes while being drained.
func TestStreamRendersPathsOnDemand(t *testing.T) {
	const depth, name = 64, "region"
	b := binary.AppendVarint(nil, 0)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, 1)
	b = appendString(b, name)
	b = binary.AppendUvarint(b, depth)
	for i := 0; i < depth; i++ {
		b = binary.AppendUvarint(b, uint64(i)) // parent: the previous path
		b = binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, 1)
	b = appendEvent(b, &Event{Kind: KindSend, Path: depth})
	blob := handSpool([][]byte{b}, 1)
	r, err := NewChunkReader(bytes.NewReader(blob), int64(len(blob)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for n := 0; ; n++ {
		ev, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			if n != 1 {
				t.Fatalf("drained %d events, want 1", n)
			}
			break
		}
	}
	if len(st.pathStrs) != 1 {
		t.Fatalf("draining rendered %d path strings", len(st.pathStrs)-1)
	}
	want := strings.TrimSuffix(strings.Repeat(name+"/", depth), "/")
	if got := st.PathString(depth); got != want {
		t.Fatalf("PathString(%d) = %q, want %q", depth, got, want)
	}
}

// TestChunkCorruptEvent: an event that fails validation is reported with
// the reader's error text, once every event before it in merged order is
// delivered, since the merge decodes an event only to deliver it.  An
// event too short to hold its time cannot be ordered, so it is reported
// when the event before it is merged, and that event is not delivered.
// A frame claimed by another location is reported when the merge reads
// it, which it does to order the event before it, so that event is not
// delivered either.
func TestChunkCorruptEvent(t *testing.T) {
	const n = 12
	cases := []struct {
		name      string
		mutate    func(i int, ev *Event)
		cut       int // bytes cut from the frame's end
		frameAt   int // if > 0, events from here on go in a second frame
		frameLoc  Location
		delivered int
		want      string
	}{
		{"unknown path", func(i int, ev *Event) {
			if i == 5 {
				ev.Path = 7
			}
		}, 0, 0, Location{}, 5, "event 5 references unknown path 7"},
		// An enter or exit takes its region from its path; the root
		// path has none.
		{"unknown region", func(i int, ev *Event) {
			if i == 5 {
				ev.Path = PathRoot
			}
		}, 0, 0, Location{}, 5, "event 5 references unknown region -1"},
		// The frame supplies every event's location.
		{"foreign location", nil, 0, 5, Location{Rank: 1}, 4, "frame belongs to 1.0"},
		{"truncated event", nil, 3, 0, Location{}, n - 1, "event 11: unexpected EOF"},
		// Each event takes 17 bytes: cutting 15 leaves 2 of the last
		// one's time.
		{"truncated time", nil, 15, 0, Location{}, n - 2, "event 11: unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evs [][]byte
			for i := 0; i < n; i++ {
				// Large payloads make every event longer than the
				// frame's count check assumes, so a cut frame still
				// passes it.
				ev := Event{Time: float64(i), Kind: KindEnter + Kind(i%2), Path: 1, Bytes: 1 << 40}
				if tc.mutate != nil {
					tc.mutate(i, &ev)
				}
				enc := appendEvent(nil, &ev)
				if len(enc) != 17 {
					t.Fatalf("event %d takes %d bytes, want 17", i, len(enc))
				}
				evs = append(evs, enc)
			}
			frame := func(loc Location, first bool, evs [][]byte) []byte {
				body := handFrame(first, 0, 0)
				body = binary.AppendUvarint(body[:len(body)-1], uint64(len(evs)))
				if loc != (Location{}) {
					hdr := binary.AppendVarint(binary.AppendVarint(nil, int64(loc.Rank)), int64(loc.Thread))
					body = append(hdr, body[2:]...)
				}
				for _, enc := range evs {
					body = append(body, enc...)
				}
				return body
			}
			var bodies [][]byte
			if tc.frameAt > 0 {
				bodies = [][]byte{frame(Location{}, true, evs[:tc.frameAt]), frame(tc.frameLoc, false, evs[tc.frameAt:])}
			} else {
				bodies = [][]byte{frame(Location{}, true, evs)}
			}
			last := bodies[len(bodies)-1]
			bodies[len(bodies)-1] = last[:len(last)-tc.cut]
			forEachBacking(t, handSpool(bodies, n), func(t *testing.T, r *ChunkReader, err error) {
				if err != nil {
					t.Fatal(err)
				}
				st, err := NewStream(r)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				for {
					var ev *Event
					if ev, err = st.Next(); err != nil || ev == nil {
						break
					}
				}
				want := "trace: chunk stream 0.0: corrupt frame: " + tc.want
				if err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if st.Events() != tc.delivered {
					t.Fatalf("%d events delivered before the error, want %d", st.Events(), tc.delivered)
				}
			})
		})
	}
}
