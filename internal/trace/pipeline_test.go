package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
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

// TestForEachMatchesNext: a stream of several batches, merged on a second
// goroutine, delivers the events Next delivers, in the same order, with
// the same region names and paths resolved while it runs, and leaves the
// stream's counters and tables as Next does.
func TestForEachMatchesNext(t *testing.T) {
	spool := memSpool(t, 64, 40)
	seq := memStream(t, spool)
	defer seq.Close()
	want := drainStream(t, seq)
	if len(want) <= 2*pipelineBatch {
		t.Fatalf("spool holds %d events, want more than two batches of %d", len(want), pipelineBatch)
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
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: ForEach %+v, Next %+v", i, got[i], want[i])
		}
	}
	if got[len(got)-2].region != "late" {
		t.Errorf("second-to-last event's region %q, want the late region", got[len(got)-2].region)
	}
	if st.Events() != seq.Events() || st.Duration() != seq.Duration() {
		t.Errorf("ForEach left %d events over %v, Next %d over %v", st.Events(), st.Duration(), seq.Events(), seq.Duration())
	}
	if st.view != &st.tab || len(st.tab.regions) != len(seq.tab.regions) {
		t.Errorf("ForEach left the view on its batch tables or %d regions, Next %d", len(st.tab.regions), len(seq.tab.regions))
	}
}

// TestForEachSmallStreamInline: a stream of at most one batch is drained
// on the caller's goroutine without a batch: ForEach allocates what the
// merge allocates under Next, and nothing more.
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
	if allocs != seqAllocs {
		t.Errorf("ForEach drained a stream with %v allocations, Next with %v", allocs, seqAllocs)
	}
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
