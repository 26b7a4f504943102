package trace

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"
)

// maxEventBytes bounds an encoded event: the fixed prefix plus ten
// varints and one uvarint.
const maxEventBytes = fixedEventBytes + 11*binary.MaxVarintLen64

// FuzzEventCodec checks the event codec of the trace format:
// decodeEvent inverts appendEvent exactly, never panics or over-reports
// on arbitrary input, and rejects every strict prefix of an encoding.
func FuzzEventCodec(f *testing.F) {
	f.Add(1.5, 0.25, uint8(KindSend), uint8(CollNone), FlagSync, int32(3), int32(0), int32(2), int32(5),
		int32(4), int32(3), int32(7), int64(1024), int32(-1), int32(0), uint64(42), []byte(nil))
	f.Add(math.Inf(-1), math.NaN(), uint8(255), uint8(CollOMPSection), uint8(255), int32(math.MinInt32), int32(math.MaxInt32),
		int32(-1), int32(math.MaxInt32), int32(math.MinInt32), int32(-7), int32(-1), int64(math.MinInt64), int32(math.MaxInt32),
		int32(math.MinInt32), uint64(math.MaxUint64), []byte{0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, tm, aux float64, kind, coll, flags uint8, rank, thread, region, path, peer, crank, tag int32,
		nbytes int64, root, comm int32, match uint64, raw []byte) {
		ev := Event{
			Time: tm, Aux: aux, Kind: Kind(kind), Coll: CollKind(coll), Flags: flags,
			Loc: Location{Rank: rank, Thread: thread}, Region: RegionID(region), Path: PathID(path),
			Peer: peer, CRank: crank, Tag: tag, Bytes: nbytes, Root: root, Comm: comm, Match: match,
		}
		// Append after unrelated bytes: the encoder must only append.
		prefix := raw[:len(raw):len(raw)]
		enc := appendEvent(prefix, &ev)
		if string(enc[:len(raw)]) != string(raw) {
			t.Fatal("appendEvent modified the bytes before dst's end")
		}
		enc = enc[len(raw):]
		if len(enc) > maxEventBytes {
			t.Fatalf("encoding is %d bytes, bound %d", len(enc), maxEventBytes)
		}
		var got Event
		n, err := decodeEvent(enc, &got)
		if err != nil || n != len(enc) {
			t.Fatalf("decode of a %d-byte encoding: n=%d err=%v", len(enc), n, err)
		}
		if math.Float64bits(got.Time) != math.Float64bits(ev.Time) || math.Float64bits(got.Aux) != math.Float64bits(ev.Aux) {
			t.Fatalf("times %v/%v round-tripped as %v/%v", ev.Time, ev.Aux, got.Time, got.Aux)
		}
		got.Time, got.Aux, ev.Time, ev.Aux = 0, 0, 0, 0
		if got != ev {
			t.Fatalf("round trip: got %+v, want %+v", got, ev)
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
	})
}

// TestStreamMemoryBound pins the O(locations) memory claim of the
// streaming path: a cursor holds one raw frame plus at most cursorBatch
// decoded events however long its frames are, and a finished buffer
// keeps no event slab.
func TestStreamMemoryBound(t *testing.T) {
	const nLocs, rounds, spill = 4, 40, 64 // 162 events per location
	path := filepath.Join(t.TempDir(), "run.atsc")
	w, err := NewChunkWriter(path, spill)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nLocs; i++ {
		b := NewBuffer(Location{Rank: int32(i)})
		// A pooled buffer may arrive with a slab grown by a
		// materialized run; the sink sizes it to one frame.
		b.events = make([]Event, 0, 4*spill)
		w.Attach(b)
		if cap(b.events) != spill {
			t.Fatalf("attached slab cap %d, want the spill threshold %d", cap(b.events), spill)
		}
		fillBuffer(b, int32(i), rounds)
		if err := w.Finish(b); err != nil {
			t.Fatal(err)
		}
		if b.events != nil {
			t.Fatalf("finished buffer keeps a slab of cap %d", cap(b.events))
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
		if ent.events < 64 {
			t.Fatalf("location %v has %d events; the test needs >= 64", ent.loc, ent.events)
		}
		for _, fr := range ent.frames {
			maxFrame = max(maxFrame, fr.len)
		}
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check := func(when string) {
		t.Helper()
		for i := range st.srcs {
			s := &st.srcs[i]
			c := s.src.(*chunkCursor)
			if cap(c.events) > cursorBatch || len(s.cur) > cursorBatch {
				t.Fatalf("%s: cursor %v holds cap %d / %d current events, bound %d",
					when, c.loc(), cap(c.events), len(s.cur), cursorBatch)
			}
			if int64(cap(c.buf)) > maxFrame {
				t.Fatalf("%s: cursor %v buffers %d raw bytes, largest frame %d", when, c.loc(), cap(c.buf), maxFrame)
			}
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
			break
		}
		check("during drain")
	}
}
