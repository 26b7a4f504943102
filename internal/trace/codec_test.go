package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzEventCodec checks the event codec of the trace format:
// decodeEvent inverts appendEvent exactly, never panics or over-reports
// on arbitrary input, and rejects every strict prefix of an encoding.
// The location is not encoded, nor an enter or exit event's region: the
// frame supplies the first and the path table the second, so decodeEvent
// must leave both zero.  A buffer never attached keeps its events in the
// encoding, and Merge spools them as one frame, so the event recorded
// into an unattached Buffer must come out of Merge unchanged, with its
// buffer's location and, for an enter or exit, its path's region.
func FuzzEventCodec(f *testing.F) {
	f.Add(1.5, 0.25, uint8(KindSend), uint8(CollNone), FlagSync, int32(3), int32(0), int32(2), int32(5),
		int32(4), int32(3), int32(7), int64(1024), int32(-1), int32(0), int32(0), uint64(42), []byte(nil))
	f.Add(math.Inf(-1), math.NaN(), uint8(255), uint8(CollOMPSection), uint8(255), int32(math.MinInt32), int32(math.MaxInt32),
		int32(-1), int32(math.MaxInt32), int32(math.MinInt32), int32(-7), int32(-1), int64(math.MinInt64), int32(math.MaxInt32),
		int32(math.MinInt32), int32(math.MinInt32), uint64(math.MaxUint64), []byte{0x80, 0x80, 0x80})
	f.Add(math.Copysign(0, -1), -math.SmallestNonzeroFloat64, uint8(KindExit), uint8(CollNone), uint8(0), int32(math.MaxInt32),
		int32(math.MinInt32), int32(math.MinInt32), int32(-1), int32(-1), int32(math.MaxInt32), int32(math.MinInt32),
		int64(math.MaxInt64), int32(-1), int32(math.MaxInt32), int32(math.MaxInt32), uint64(1)<<63, []byte(nil))
	f.Add(-2.5e-310, -1e300, uint8(KindColl), uint8(CollAlltoallv), FlagRoot|FlagNonBlocking, int32(-1), int32(-1),
		int32(0), int32(0), int32(0), int32(0), int32(0), int64(-1), int32(-1), int32(-1), int32(16384), uint64(1)<<63+1, []byte(nil))
	// An enter and an exit as Buffer.Enter and Exit record them: time,
	// header and path alone.
	f.Add(0.125, 0.0, uint8(KindEnter), uint8(CollNone), uint8(0), int32(5), int32(2), int32(3), int32(4),
		int32(0), int32(0), int32(0), int64(0), int32(0), int32(0), int32(0), uint64(0), []byte(nil))
	f.Add(0.25, 0.0, uint8(KindExit), uint8(CollNone), uint8(0), int32(16383), int32(0), int32(1), int32(200),
		int32(0), int32(0), int32(0), int64(0), int32(0), int32(0), int32(0), uint64(0), []byte{0x0a})
	// A collective as the engine records it, and a kind whose high bits
	// need their own field.
	f.Add(2.0, 1.5, uint8(KindColl), uint8(CollBarrier), uint8(0), int32(7), int32(0), int32(0), int32(6),
		int32(0), int32(7), int32(0), int64(0), int32(-1), int32(0), int32(16384), uint64(99), []byte(nil))
	f.Add(3.0, 0.0, uint8(0x10|KindMarker), uint8(CollNone), uint8(0), int32(0), int32(0), int32(9), int32(1),
		int32(0), int32(0), int32(0), int64(0), int32(0), int32(0), int32(0), uint64(0), []byte(nil))
	// Its low bits are an enter's, but it is no enter: its region is a
	// field.
	f.Add(math.Copysign(0, -1), -5e-324, uint8(0x10|KindEnter), uint8(CollNone), uint8(0), int32(math.MaxInt32), int32(-2147483627),
		int32(math.MinInt32), int32(-1), int32(-1), int32(math.MaxInt32), int32(math.MinInt32), int64(math.MaxInt64), int32(-1),
		int32(2147483607), int32(math.MaxInt32), uint64(1)<<63, []byte(nil))
	f.Fuzz(func(t *testing.T, tm, aux float64, kind, coll, flags uint8, rank, thread, region, path, peer, crank, tag int32,
		nbytes int64, root, comm, parts int32, match uint64, raw []byte) {
		ev := Event{
			Time: tm, Aux: aux, Kind: Kind(kind), Coll: CollKind(coll), Flags: flags,
			Loc: Location{Rank: rank, Thread: thread}, Region: RegionID(region), Path: PathID(path),
			Peer: peer, CRank: crank, Tag: tag, Bytes: nbytes, Root: root, Comm: comm, Parts: parts, Match: match,
		}
		// Append after unrelated bytes: the encoder must only append.
		prefix := raw[:len(raw):len(raw)]
		enc := appendEvent(prefix, &ev)
		if string(enc[:len(raw)]) != string(raw) {
			t.Fatal("appendEvent modified the bytes before dst's end")
		}
		enc = enc[len(raw):]
		if len(enc) > maxEventBytes || len(enc) < minEventBytes {
			t.Fatalf("encoding is %d bytes, bounds %d..%d", len(enc), minEventBytes, maxEventBytes)
		}
		// Poison the destination: decodeEvent must write every field.
		got := Event{Loc: Location{Rank: 1, Thread: 1}, Region: 1, Parts: 1, Aux: 1}
		n, err := decodeEvent(enc, &got)
		if err != nil || n != len(enc) {
			t.Fatalf("decode of a %d-byte encoding: n=%d err=%v", len(enc), n, err)
		}
		if math.Float64bits(got.Time) != math.Float64bits(ev.Time) || math.Float64bits(got.Aux) != math.Float64bits(ev.Aux) {
			t.Fatalf("times %v/%v round-tripped as %v/%v", ev.Time, ev.Aux, got.Time, got.Aux)
		}
		want := ev
		want.Loc = Location{}
		if ev.Kind == KindEnter || ev.Kind == KindExit {
			want.Region = 0
		}
		got.Time, got.Aux, want.Time, want.Aux = 0, 0, 0, 0
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		for i := 0; i < len(enc); i++ {
			if _, err := decodeEvent(enc[:i], &got); err == nil {
				t.Fatalf("decode accepted the %d-byte prefix of a %d-byte encoding", i, len(enc))
			}
		}
		n, err = decodeEvent(raw, &got)
		if err == nil && (n <= 0 || n > len(raw)) {
			t.Fatalf("decode of %d arbitrary bytes reported %d consumed", len(raw), n)
		}
		if err != nil && n != 0 {
			t.Fatalf("failed decode reported %d bytes consumed", n)
		}
		testMergeRoundTrip(t, ev)
	})
}

// testMergeRoundTrip records ev into an unattached buffer several times
// and checks that Merge returns every copy with every field unchanged.
// Merge remaps path ids and the region ids of enter and exit events; with
// one seeded path and region, the local and global ids are the same, so
// ev carries those, and an enter or exit takes the path's region, 0.
func testMergeRoundTrip(t *testing.T, ev Event) {
	b := NewBuffer(ev.Loc)
	defer b.Release()
	b.Seed([]string{"r"})
	ev.Path = 1
	if ev.Kind == KindEnter || ev.Kind == KindExit {
		ev.Region = 0
	}
	const copies = 9
	for i := 0; i < copies; i++ {
		b.Record(ev)
	}
	tr := Merge(b)
	if len(tr.Events) != copies {
		t.Fatalf("Merge returned %d events, recorded %d", len(tr.Events), copies)
	}
	want := ev
	want.Time, want.Aux = 0, 0 // compared as bits: NaN != NaN
	for i, got := range tr.Events {
		if math.Float64bits(got.Time) != math.Float64bits(ev.Time) || math.Float64bits(got.Aux) != math.Float64bits(ev.Aux) {
			t.Fatalf("merged event %d: times %v/%v came back as %v/%v", i, ev.Time, ev.Aux, got.Time, got.Aux)
		}
		got.Time, got.Aux = 0, 0
		if got != want {
			t.Fatalf("merged event %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestStreamMemoryBound pins the per-location memory claim of the
// streaming path, at a threshold of 64 and at the one the runtime uses
// (DefaultSpillEvents).  While recording, a buffer's pending frame never
// takes more than the spill threshold times the largest encoded event,
// here larger than frameEventBytes, even when the buffer arrives from the
// pool with a frame grown for Merge; a finished buffer keeps no frame.
// NewStream reads no frame.  While merging, a cursor holds one raw frame,
// no larger than the largest frame, and no decoded event: the merge state
// has no field that could hold one, and a drained stream holds no sources
// at all.  Reading in spool order, a cursor holds no frame between its
// frames: at most one cursor does, in the stream's one frame buffer.
func TestStreamMemoryBound(t *testing.T) {
	for _, spill := range []int{64, DefaultSpillEvents} {
		t.Run(fmt.Sprintf("spill%d", spill), func(t *testing.T) { testStreamMemoryBound(t, spill) })
	}
}

func testStreamMemoryBound(t *testing.T, spill int) {
	const nLocs, rounds = 4, 40 // 162 events per location
	path := filepath.Join(t.TempDir(), "run.atsc")
	w, err := NewChunkWriter(path, spill)
	if err != nil {
		t.Fatal(err)
	}
	frameCap := make([]int, nLocs)
	for i := range frameCap {
		// Rank ids this large make each send event, which carries its
		// rank and peer, 31 bytes and the frames' average above
		// frameEventBytes, so the frames have to grow.
		b := NewBuffer(Location{Rank: 1<<28 + int32(i), Thread: 1 << 28})
		// A pooled buffer may arrive with a frame grown for Merge;
		// the sink replaces it.
		pooled := 4 * spill * maxEventBytes
		b.frame = make([]byte, 0, pooled)
		w.Attach(b)
		if cap(b.frame) >= pooled {
			t.Fatalf("attached buffer keeps a materialized frame of cap %d", cap(b.frame))
		}
		fillBuffer(b, b.Loc.Rank, rounds)
		// Spills only reset the frame's length, so its capacity now is
		// the most it held.
		frameCap[i] = cap(b.frame)
		if err := w.Finish(b); err != nil {
			t.Fatal(err)
		}
		if b.frame != nil || b.pending != 0 {
			t.Fatalf("finished buffer keeps %d pending events in a frame of cap %d", b.pending, cap(b.frame))
		}
		b.Release()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var maxFrame int64
	for _, ent := range r.streams {
		if len(ent.frames) < 3 {
			t.Fatalf("location %v has %d events in %d frames; the test needs >= 3 frames",
				ent.loc, ent.events, len(ent.frames))
		}
		for _, fr := range ent.frames {
			maxFrame = max(maxFrame, fr.len)
		}
	}
	// The largest encoded event of the spool bounds every pending frame.
	largest := 0
	cs, err := r.cursors()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		for {
			_, ok, err := c.ready()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			var ev Event
			if err := c.pop(&ev); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, len(appendEvent(nil, &ev)))
		}
	}
	grew := false
	for i, c := range frameCap {
		if c > spill*largest {
			t.Fatalf("location %d: pending frame reached cap %d bytes, bound %d x %d", i, c, spill, largest)
		}
		grew = grew || c > spill*frameEventBytes
	}
	if !grew {
		t.Fatal("no frame grew past its initial size; the test must exercise growth")
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, typ := range []reflect.Type{reflect.TypeFor[sourceState](), reflect.TypeFor[chunkCursor](), reflect.TypeFor[heapEntry]()} {
		if f, ok := eventField(typ); ok {
			t.Fatalf("merge state %v.%s can hold a decoded event", typ, f)
		}
	}
	check := func(when string) {
		t.Helper()
		for i := range st.srcs {
			c := st.srcs[i].src
			if int64(cap(c.buf)) > maxFrame {
				t.Fatalf("%s: cursor %v buffers %d raw bytes, largest frame %d", when, c.loc(), cap(c.buf), maxFrame)
			}
		}
	}
	for i := range st.srcs {
		if c := st.srcs[i].src; c.buf != nil || c.fi != 0 {
			t.Fatalf("NewStream read %d frames of cursor %v", c.fi, c.loc())
		}
	}
	check("after NewStream")
	for n := 0; ; n++ {
		ev, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			if n != r.Events() {
				t.Fatalf("drained %d events, index records %d", n, r.Events())
			}
			if st.srcs != nil || st.heap != nil || st.regionIDs != nil || st.pathChild != nil {
				t.Fatalf("drained stream holds %d sources, %d heap entries, intern maps %v/%v",
					len(st.srcs), len(st.heap), st.regionIDs != nil, st.pathChild != nil)
			}
			if len(st.Locations()) != nLocs || st.Events() != n || st.RegionName(0) == "?" {
				t.Fatalf("drained stream lost its tables or counters: %d locations, %d events", len(st.Locations()), st.Events())
			}
			break
		}
		check("during drain")
	}

	r, err = OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.ForEach(func(*Event) {
		held := 0
		for i := range sp.srcs {
			if c := sp.srcs[i].src; c.buf != nil {
				held++
			}
		}
		if held > 1 || int64(cap(sp.frame)) > maxFrame {
			t.Fatalf("reading in spool order: %d cursors hold a frame, frame buffer %d bytes, largest frame %d",
				held, cap(sp.frame), maxFrame)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sp.Events() != r.Events() {
		t.Fatalf("ForEach delivered %d events, index records %d", sp.Events(), r.Events())
	}
}

// eventField reports the first field of struct typ that is, points to or
// holds an Event, following slices, arrays, pointers and structs of the
// trace package.
func eventField(typ reflect.Type) (string, bool) {
	ev := reflect.TypeFor[Event]()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		if ft == ev {
			return f.Name, true
		}
		if ft.Kind() == reflect.Struct && ft.PkgPath() == typ.PkgPath() {
			if name, ok := eventField(ft); ok {
				return f.Name + "." + name, true
			}
		}
	}
	return "", false
}

// TestDecodeEventRejectsFieldsItCannotHold: a mask bit past the last
// field, and a region field on an enter or exit event (whose region is
// its path's), are corrupt, not silently dropped.
func TestDecodeEventRejectsFieldsItCannotHold(t *testing.T) {
	event := func(header uint64, fields ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))
		b = binary.AppendUvarint(b, header)
		b = append(b, 1) // path
		return append(b, fields...)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
		want error
	}{
		{"unknown field", event(fieldsEnd<<kindBits|uint64(KindSend), 0), errUnknownFields},
		{"enter with a region", event(fieldRegion<<kindBits|uint64(KindEnter), 2), errEnterRegion},
		{"exit with a region", event(fieldRegion<<kindBits|uint64(KindExit), 2), errEnterRegion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ev Event
			if n, err := decodeEvent(tc.enc, &ev); err != tc.want || n != 0 {
				t.Fatalf("decodeEvent = %d, %v; want 0, %v", n, err, tc.want)
			}
		})
	}
	var ev Event
	if n, err := decodeEvent(event(fieldRegion<<kindBits|uint64(KindSend), 2), &ev); err != nil || ev.Region != 1 || n != 13 {
		t.Fatalf("a send's region field: decodeEvent = %d, %v, region %d; want 13, nil, 1", n, err, ev.Region)
	}
}
