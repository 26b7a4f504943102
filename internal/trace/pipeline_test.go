package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"
)

// memSpool records nLocs locations of events each (fillBuffer) into an
// in-memory spool.
func memSpool(t *testing.T, nLocs, events int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewChunkWriterTo(&buf, DefaultSpillEvents)
	for i := 0; i < nLocs; i++ {
		b := NewBuffer(Location{Rank: int32(i), Thread: 0})
		w.Attach(b)
		fillBuffer(b, int32(i), events)
		if i == nLocs-1 {
			// A region no other location enters, met only late in the
			// merge.
			b.Enter("late", float64(events))
			b.Exit(float64(events) + 0.001)
		}
		if err := w.Finish(b); err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func memStream(t *testing.T, spool []byte) *Stream {
	t.Helper()
	r, err := NewChunkReader(bytes.NewReader(spool), int64(len(spool)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// byLocation splits a delivered sequence into its locations' own
// sequences.
func byLocation(events []streamedEvent) map[Location][]streamedEvent {
	out := map[Location][]streamedEvent{}
	for _, se := range events {
		out[se.ev.Loc] = append(out[se.ev.Loc], se)
	}
	return out
}

// frameOffsets returns, for each location of spool, the file offset of
// the frame each of its events lies in.
func frameOffsets(t *testing.T, spool []byte) map[Location][]int64 {
	t.Helper()
	r, err := NewChunkReader(bytes.NewReader(spool), int64(len(spool)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[Location][]int64{}
	cs, err := r.cursors()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		for _, fr := range c.ent.frames {
			if err := c.readFrame(c.buf); err != nil {
				t.Fatal(err)
			}
			for range c.left {
				out[c.loc()] = append(out[c.loc()], fr.off)
			}
			c.delivered += c.left
		}
	}
	return out
}

// TestForEachMatchesNext: ForEach delivers each location's events as Next
// does, in the same order and with the same region names and paths
// resolved while it runs, reads whole frames in ascending file offset,
// and leaves the stream's counters and tables as Next does: on a stream
// of several batches, read on a second goroutine, and on one drained
// inline.  The spool's frames lie location after location, so spool
// order is not merged order.
func TestForEachMatchesNext(t *testing.T) {
	for _, tc := range []struct {
		name         string
		locs, events int
		pipelined    bool
	}{
		{"pipelined", 64, 40, true},
		{"inline", 4, 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := memSpool(t, tc.locs, tc.events)
			seq := memStream(t, spool)
			defer seq.Close()
			want := drainStream(t, seq)
			if tc.pipelined && len(want) <= 2*pipelineBatch || !tc.pipelined && len(want) > pipelineBatch {
				t.Fatalf("spool holds %d events; want more than two batches of %d (%v) or at most one", len(want), pipelineBatch, tc.pipelined)
			}

			st := memStream(t, spool)
			defer st.Close()
			var got []streamedEvent
			err := st.ForEach(func(ev *Event) {
				se := streamedEvent{ev: *ev, path: st.PathString(ev.Path)}
				if ev.Kind == KindEnter || ev.Kind == KindExit {
					se.region = st.RegionName(ev.Region)
				}
				got = append(got, se)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("ForEach delivered %d events, Next %d", len(got), len(want))
			}
			wantLoc, gotLoc := byLocation(want), byLocation(got)
			if len(gotLoc) != len(wantLoc) {
				t.Fatalf("ForEach delivered %d locations, Next %d", len(gotLoc), len(wantLoc))
			}
			for loc, w := range wantLoc {
				g := gotLoc[loc]
				if len(g) != len(w) {
					t.Fatalf("location %v: ForEach delivered %d events, Next %d", loc, len(g), len(w))
				}
				for i := range w {
					// Global ids follow the order the stream meets
					// frames in; names and paths must not.
					ge, we := g[i], w[i]
					ge.ev.Region, ge.ev.Path, we.ev.Region, we.ev.Path = 0, 0, 0, 0
					if ge != we {
						t.Fatalf("location %v event %d: ForEach %+v, Next %+v", loc, i, g[i], w[i])
					}
				}
			}
			offs := frameOffsets(t, spool)
			seen := map[Location]int{}
			var last int64
			for i, se := range got {
				off := offs[se.ev.Loc][seen[se.ev.Loc]]
				seen[se.ev.Loc]++
				if off < last {
					t.Fatalf("event %d lies in the frame at %d, after one at %d", i, off, last)
				}
				last = off
			}
			if slices.EqualFunc(got, want, func(g, w streamedEvent) bool { return g.ev.Loc == w.ev.Loc && g.ev.Time == w.ev.Time }) {
				t.Error("ForEach delivered merged order; the spool cannot tell the orders apart")
			}
			if got[len(got)-2].region != "late" {
				t.Errorf("second-to-last event's region %q, want the late region", got[len(got)-2].region)
			}
			if st.Events() != seq.Events() || st.Duration() != seq.Duration() {
				t.Errorf("ForEach left %d events over %v, Next %d over %v", st.Events(), st.Duration(), seq.Events(), seq.Duration())
			}
			if st.view != &st.tab || len(st.tab.regions) != len(seq.tab.regions) || len(st.tab.pathParent) != len(seq.tab.pathParent) {
				t.Errorf("ForEach left the view on its batch tables or %d regions and %d paths, Next %d and %d",
					len(st.tab.regions), len(st.tab.pathParent), len(seq.tab.regions), len(seq.tab.pathParent))
			}
		})
	}
}

// TestForEachSmallStreamInline: a stream of at most one batch is drained
// on the caller's goroutine without a batch.  NewStream reads no frame,
// so each order allocates, besides the intern tables both build, exactly
// the frame buffers it reads into: Next one per location, grown whenever
// a frame is larger than any before it of that location, ForEach one
// for the stream, grown whenever a frame is larger than any before it in
// the file.
func TestForEachSmallStreamInline(t *testing.T) {
	spool := memSpool(t, 4, 10)
	const runs = 10
	// AllocsPerRun drains one stream more than runs, to warm up.
	streams := func() []*Stream {
		sts := make([]*Stream, runs+1)
		for i := range sts {
			sts[i] = memStream(t, spool)
			t.Cleanup(func() { sts[i].Close() })
		}
		return sts
	}
	if total := memStream(t, spool).total; total > pipelineBatch {
		t.Fatalf("spool holds %d events, want at most %d", total, pipelineBatch)
	}
	nextFrames, eachFrames := frameBufferAllocs(t, spool)
	// The 5 regions and 6 paths of the stream's tables take 4 + 3 + 3
	// slice growths and a map group each for their ids; the readers'
	// region names take 5 strings and their map's group.  The per-source
	// id maps and the cursors' tables fit the slabs they are carved from.
	const tableAllocs = 4 + 3 + 3 + 2 + 5 + 1
	seq, sts := streams(), streams()
	i, j := 0, 0
	seqAllocs := testing.AllocsPerRun(runs, func() {
		for ev, _ := seq[i].Next(); ev != nil; ev, _ = seq[i].Next() {
		}
		i++
	})
	allocs := testing.AllocsPerRun(runs, func() {
		if err := sts[j].ForEach(func(*Event) {}); err != nil {
			t.Fatal(err)
		}
		j++
	})
	for k := range sts {
		if sts[k].Events() != seq[k].Events() {
			t.Fatalf("ForEach delivered %d events, Next %d", sts[k].Events(), seq[k].Events())
		}
	}
	if seqAllocs != tableAllocs+nextFrames {
		t.Errorf("Next drained a stream with %v allocations, want %d tables + %v frame buffers", seqAllocs, tableAllocs, nextFrames)
	}
	if allocs != tableAllocs+eachFrames {
		t.Errorf("ForEach drained a stream with %v allocations, want %d tables + %v frame buffers", allocs, tableAllocs, eachFrames)
	}
	if eachFrames >= nextFrames {
		t.Errorf("ForEach allocates %v frame buffers, Next %v: the shared buffer saves nothing", eachFrames, nextFrames)
	}
}

// frameBufferAllocs returns the frame buffers Next and ForEach allocate
// to drain spool: every frame that is larger than any frame the same
// buffer read before it.
func frameBufferAllocs(t *testing.T, spool []byte) (next, each float64) {
	t.Helper()
	r, err := NewChunkReader(bytes.NewReader(spool), int64(len(spool)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var all []frameRef
	for _, ent := range r.streams {
		var largest int64
		for _, fr := range ent.frames {
			if fr.len > largest {
				largest = fr.len
				next++
			}
		}
		all = append(all, ent.frames...)
	}
	slices.SortFunc(all, func(a, b frameRef) int { return int(a.off - b.off) })
	var largest int64
	for _, fr := range all {
		if fr.len > largest {
			largest = fr.len
			each++
		}
	}
	return next, each
}

// TestForEachCorruptAfterFirstBatch: a frame that fails to decode after
// the first batch ends ForEach with the merge's error, and the merge
// goroutine has exited by the time ForEach returns.
func TestForEachCorruptAfterFirstBatch(t *testing.T) {
	spool := memSpool(t, 64, 40)
	r, err := NewChunkReader(bytes.NewReader(spool), int64(len(spool)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The last frame written is the last location's last: claim it for
	// another rank.
	var last frameRef
	for _, s := range r.streams {
		for _, fr := range s.frames {
			if fr.off > last.off {
				last = fr
			}
		}
	}
	spool[last.off] ^= 0x02

	before := runtime.NumGoroutine()
	st := memStream(t, spool)
	defer st.Close()
	n := 0
	err = st.ForEach(func(*Event) { n++ })
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("frame belongs to")) {
		t.Fatalf("ForEach over a corrupt frame: %v, want the frame's error", err)
	}
	if n < pipelineBatch {
		t.Errorf("the error came after %d events, want after the first batch of %d", n, pipelineBatch)
	}
	if _, err2 := st.Next(); err2 != err {
		t.Errorf("Next after ForEach: %v, want the sticky %v", err2, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after ForEach, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingReaderAt counts the reads that reach a source.
type countingReaderAt struct {
	r     *bytes.Reader
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestWindowReader drives the read-ahead window through its cases: reads
// inside the window, a read larger than the window, a read crossing the
// window's end, reads near and past the end of the source, and a
// backward read.  Every read must return the source's bytes.
func TestWindowReader(t *testing.T) {
	data := make([]byte, 3*readWindow+500)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	src := &countingReaderAt{r: bytes.NewReader(data)}
	w := newWindowReader(src, int64(len(data)))
	read := func(name string, off int64, n, wantN, wantReads int, wantErr error) {
		t.Helper()
		p := make([]byte, n)
		got, err := w.ReadAt(p, off)
		if got != wantN || !errors.Is(err, wantErr) {
			t.Errorf("%s: ReadAt(%d bytes at %d) = %d, %v; want %d, %v", name, n, off, got, err, wantN, wantErr)
		}
		if !bytes.Equal(p[:got], data[off:off+int64(got)]) {
			t.Errorf("%s: bytes differ from the source's", name)
		}
		if src.reads != wantReads {
			t.Errorf("%s: %d source reads so far, want %d", name, src.reads, wantReads)
		}
	}
	read("first read fills the window", 100, 50, 50, 1, nil)
	read("inside the window", 5000, 600, 600, 1, nil)
	read("up to the window's end", readWindow+100-600, 600, 600, 1, nil)
	read("larger than the window", 10, readWindow+1, readWindow+1, 2, nil)
	read("the large read left the window", 200, 10, 10, 2, nil)
	read("crossing the window's end", readWindow+90, 20, 20, 3, nil)
	read("inside the refilled window", readWindow+95, 1000, 1000, 3, nil)
	read("backward", readWindow+10, 20, 20, 4, nil)
	read("near the end", int64(len(data))-20, 20, 20, 5, nil)
	read("inside the short window", int64(len(data))-10, 10, 10, 5, nil)
	read("past the end", int64(len(data))-10, 30, 10, 6, io.EOF)

	small := newWindowReader(bytes.NewReader(data[:100]), 100)
	if len(small.buf) != 100 {
		t.Errorf("window over 100 bytes holds %d, want 100", len(small.buf))
	}
}

// TestDrainedStreamReleasesFrameIndex: once a stream has delivered its
// last event, by Next or by ForEach, its readers hold no frameRef and no
// region-name map, what Locations and Events read stays, and a second
// NewStream over a reader fails with errReaderSpent.
func TestDrainedStreamReleasesFrameIndex(t *testing.T) {
	spool := memSpool(t, 64, 40)
	for _, drain := range []struct {
		name string
		run  func(st *Stream) error
	}{
		{"Next", func(st *Stream) error {
			for {
				ev, err := st.Next()
				if ev == nil {
					return err
				}
			}
		}},
		{"ForEach", func(st *Stream) error { return st.ForEach(func(*Event) {}) }},
	} {
		t.Run(drain.name, func(t *testing.T) {
			st := memStream(t, spool)
			defer st.Close()
			r := st.readers[0]
			locs, events := r.Locations(), r.Events()
			if err := drain.run(st); err != nil {
				t.Fatal(err)
			}
			frames := 0
			for _, ent := range r.streams {
				frames += len(ent.frames)
			}
			if frames != 0 || r.names != nil {
				t.Errorf("drained stream's reader holds %d frameRefs and region-name map %v", frames, r.names != nil)
			}
			if !slices.Equal(r.Locations(), locs) || r.Events() != events || st.Events() != events || len(st.Locations()) != len(locs) {
				t.Errorf("drained reader reads %d locations and %d events, stream %d and %d; want %d and %d",
					len(r.Locations()), r.Events(), len(st.Locations()), st.Events(), len(locs), events)
			}
			if _, err := NewStream(r); !errors.Is(err, errReaderSpent) {
				t.Errorf("NewStream over a drained reader: err %v, want %v", err, errReaderSpent)
			}
		})
	}
}
