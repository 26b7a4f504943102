package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// A serialized trace is an ATSC spool (chunk.go): Write and WriteFile
// spool a merged Trace exactly as a streaming run would have spooled its
// events, and Read and ReadFile merge a spool back into a Trace.  The
// format is self-contained: a trace written by the cmd binaries can be
// re-read by cmd/atsanalyze and cmd/atstrace.  doc/FORMATS.md is the
// normative spec.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// fixedEventBytes is the fixed-width prefix of an encoded event: Time and
// Aux as little-endian IEEE-754 bits, then the Kind, Coll and Flags bytes.
const fixedEventBytes = 19

// maxEventBytes bounds an encoded event: the fixed prefix, nine varints
// of int32 fields, and the int64 Bytes and uint64 Match.
const maxEventBytes = fixedEventBytes + 9*binary.MaxVarintLen32 + 2*binary.MaxVarintLen64

// appendEvent appends ev in the event encoding (doc/FORMATS.md §1.1):
// the fixed prefix, varints rank, thread, region, path, peer, crank, tag,
// bytes, root, comm, and the uvarint match id.  It encodes into room for
// maxEventBytes at dst's end, so it grows dst only when that room is
// missing.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = slices.Grow(dst, maxEventBytes)
	n := len(dst)
	b := dst[n : n+maxEventBytes]
	binary.LittleEndian.PutUint64(b, math.Float64bits(ev.Time))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(ev.Aux))
	b[16], b[17], b[18] = byte(ev.Kind), byte(ev.Coll), ev.Flags
	k := fixedEventBytes
	k += binary.PutVarint(b[k:], int64(ev.Loc.Rank))
	k += binary.PutVarint(b[k:], int64(ev.Loc.Thread))
	k += binary.PutVarint(b[k:], int64(ev.Region))
	k += binary.PutVarint(b[k:], int64(ev.Path))
	k += binary.PutVarint(b[k:], int64(ev.Peer))
	k += binary.PutVarint(b[k:], int64(ev.CRank))
	k += binary.PutVarint(b[k:], int64(ev.Tag))
	k += binary.PutVarint(b[k:], ev.Bytes)
	k += binary.PutVarint(b[k:], int64(ev.Root))
	k += binary.PutVarint(b[k:], int64(ev.Comm))
	k += binary.PutUvarint(b[k:], ev.Match)
	return dst[:n+k]
}

var errVarintOverflow = errors.New("trace: varint overflows a 64-bit integer")

// decodeEvent decodes the event at the front of b (the appendEvent
// encoding) into ev and returns the number of bytes it took.  A buffer
// that ends inside the event yields io.ErrUnexpectedEOF.  Callers validate
// the decoded ids against their own tables.
func decodeEvent(b []byte, ev *Event) (int, error) {
	if len(b) < fixedEventBytes {
		return 0, io.ErrUnexpectedEOF
	}
	ev.Time = math.Float64frombits(binary.LittleEndian.Uint64(b))
	ev.Aux = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	ev.Kind, ev.Coll, ev.Flags = Kind(b[16]), CollKind(b[17]), b[18]
	n := fixedEventBytes
	var ints [10]int64
	for j := range ints {
		// Most fields are small ids that fit one varint byte; decode
		// those inline (zigzag, as binary.Varint does).
		if n < len(b) && b[n] < 0x80 {
			x := int64(b[n])
			ints[j] = x>>1 ^ -(x & 1)
			n++
			continue
		}
		v, k := binary.Varint(b[n:])
		if k <= 0 {
			return 0, varintErr(k)
		}
		ints[j] = v
		n += k
	}
	if n < len(b) && b[n] < 0x80 {
		ev.Match = uint64(b[n])
		n++
	} else {
		match, k := binary.Uvarint(b[n:])
		if k <= 0 {
			return 0, varintErr(k)
		}
		ev.Match = match
		n += k
	}
	ev.Loc = Location{Rank: int32(ints[0]), Thread: int32(ints[1])}
	ev.Region = RegionID(ints[2])
	ev.Path = PathID(ints[3])
	ev.Peer, ev.CRank, ev.Tag = int32(ints[4]), int32(ints[5]), int32(ints[6])
	ev.Bytes = ints[7]
	ev.Root, ev.Comm = int32(ints[8]), int32(ints[9])
	return n, nil
}

// varintErr maps a non-positive binary.Varint/Uvarint length to an error:
// 0 means the buffer ended inside the value, < 0 an overflow.
func varintErr(k int) error {
	if k == 0 {
		return io.ErrUnexpectedEOF
	}
	return errVarintOverflow
}

// Write serializes the trace to w as an ATSC spool and returns the number
// of bytes written.
func (t *Trace) Write(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := NewChunkWriterTo(bw, DefaultSpillEvents)
	err := t.spool(cw)
	if err == nil {
		err = bw.Flush()
	}
	return cw.off - int64(bw.Buffered()), err
}

// WriteFile serializes the trace to the named file.  The write is atomic
// (see NewChunkWriter): a crash or write error never leaves a truncated
// trace at path.
func (t *Trace) WriteFile(path string) error {
	cw, err := NewChunkWriter(path, DefaultSpillEvents)
	if err != nil {
		return err
	}
	return t.spool(cw)
}

// spool writes the trace through w, one pooled Buffer per location, and
// closes w.  Each location's events pass through its buffer in trace
// order, spilling a frame at the writer's threshold, and their region and
// path ids are re-interned into the buffer's local tables as they first
// appear, parents first: the tables a run recording those events would
// have built.  The spool is therefore a function of each location's
// event sequence alone, whatever the trace's global id order.
func (t *Trace) spool(w *ChunkWriter) error {
	if err := t.spoolLocations(w); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

func (t *Trace) spoolLocations(w *ChunkWriter) error {
	for i := 1; i < len(t.PathParent); i++ {
		if p, r := t.PathParent[i], t.PathRegion[i]; p < 0 || int(p) >= i || r < 0 || int(r) >= len(t.Regions) {
			return fmt.Errorf("trace: corrupt path table entry %d", i)
		}
	}
	// Group event indices by location, in trace order within each.
	slot := make(map[Location]int, len(t.Locations))
	for i, loc := range t.Locations {
		slot[loc] = i
	}
	slots := make([]int32, len(t.Events))
	start := make([]int, len(t.Locations)+1)
	for i := range t.Events {
		ev := &t.Events[i]
		s, ok := slot[ev.Loc]
		switch {
		case !ok:
			return fmt.Errorf("trace: event %d at %v, which is not in the location table", i, ev.Loc)
		case ev.Path < 0 || int(ev.Path) >= len(t.PathParent):
			return fmt.Errorf("trace: event %d references unknown path %d", i, ev.Path)
		case (ev.Kind == KindEnter || ev.Kind == KindExit) && (ev.Region < 0 || int(ev.Region) >= len(t.Regions)):
			return fmt.Errorf("trace: event %d references unknown region %d", i, ev.Region)
		}
		slots[i] = int32(s)
		start[s+1]++
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	order := make([]int32, len(t.Events))
	fill := append([]int(nil), start[:len(t.Locations)]...)
	for i, s := range slots {
		order[fill[s]] = int32(i)
		fill[s]++
	}

	// Global → local id maps of the current location; local ids are
	// stored plus one, so zero means not yet interned.
	regionMap := make([]RegionID, len(t.Regions))
	pathMap := make([]PathID, len(t.PathParent))
	var b *Buffer
	localRegion := func(g RegionID) RegionID {
		if regionMap[g] == 0 {
			regionMap[g] = b.region(t.Regions[g]) + 1
		}
		return regionMap[g] - 1
	}
	var localPath func(g PathID) PathID
	localPath = func(g PathID) PathID {
		if g == PathRoot {
			return PathRoot
		}
		if pathMap[g] == 0 {
			parent := localPath(t.PathParent[g])
			pathMap[g] = b.child(parent, localRegion(t.PathRegion[g])) + 1
		}
		return pathMap[g] - 1
	}
	for s, loc := range t.Locations {
		b = NewBuffer(loc)
		w.Attach(b)
		for _, i := range order[start[s]:start[s+1]] {
			ev := t.Events[i]
			ev.Path = localPath(ev.Path)
			if ev.Kind == KindEnter || ev.Kind == KindExit {
				ev.Region = localRegion(ev.Region)
			}
			b.add(&ev)
		}
		err := w.Finish(b)
		b.Release()
		if err != nil {
			return err
		}
		clear(regionMap)
		clear(pathMap)
	}
	return nil
}

// Read deserializes a trace written by Write or spooled by a streaming
// run.  The input is validated as NewChunkReader validates any spool, so
// corrupt input fails with an error rather than an allocation its counts
// cannot justify.
func Read(r io.Reader) (*Trace, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cr, err := NewChunkReader(bytes.NewReader(blob), int64(len(blob)), Limits{})
	if err != nil {
		return nil, err
	}
	return readChunks(cr)
}

// ReadFile deserializes a trace from the named file.
func ReadFile(path string) (*Trace, error) {
	cr, err := OpenChunkFile(path)
	if err != nil {
		return nil, err
	}
	return readChunks(cr)
}

// readChunks merges the spool's streams into a Trace and closes cr.
func readChunks(cr *ChunkReader) (*Trace, error) {
	st, err := NewStream(cr)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.drain(cr.Events())
}

// Minimum encoded size of one element of each variable-length section,
// used to bound untrusted counts against the enclosing byte range: a
// range of S bytes cannot hold more than S/min elements, so a count above
// that is corrupt and must not drive a speculative allocation.
const (
	minRegionBytes = 1  // uvarint length (zero-length string)
	minPathBytes   = 2  // uvarint parent + uvarint region
	minEventBytes  = 30 // 2 floats + 3 fixed bytes + 10 varints + 1 uvarint
)

// checkCount validates an untrusted element count against the size of
// the byte range that must hold it.  The count is bounded even when the
// range is large, so a corrupt header cannot request an implausible
// allocation.
func checkCount(n uint64, minBytes, size int64, what string) error {
	if n > uint64(size)/uint64(minBytes) {
		return fmt.Errorf("trace: implausible %s count %d for %d-byte input", what, n, size)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("trace: implausible %s count %d", what, n)
	}
	return nil
}

// sliceCap bounds the initial capacity reserved for n announced elements,
// so that a count that passed checkCount still costs at most a small
// allocation up front; growth past the cap is left to append, which stops
// at the actual end of input.
func sliceCap(n uint64) int {
	const chunk = 1 << 16
	if n > chunk {
		return chunk
	}
	return int(n)
}

// jsonEvent is the export schema of WriteJSON.
type jsonEvent struct {
	Time  float64 `json:"t"`
	Aux   float64 `json:"aux,omitempty"`
	Kind  string  `json:"kind"`
	Loc   string  `json:"loc"`
	Path  string  `json:"path,omitempty"`
	Peer  int32   `json:"peer,omitempty"`
	Tag   int32   `json:"tag,omitempty"`
	Bytes int64   `json:"bytes,omitempty"`
	Match uint64  `json:"match,omitempty"`
	Coll  string  `json:"coll,omitempty"`
	Root  int32   `json:"root,omitempty"`
	Comm  int32   `json:"comm,omitempty"`
}

// WriteJSON exports the trace as JSON lines (one event per line) for
// consumption by external tooling.  The format is lossy in the direction
// of readability: region/path ids are resolved to strings.
func (t *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.Events {
		ev := &t.Events[i]
		je := jsonEvent{
			Time: ev.Time, Aux: ev.Aux, Kind: ev.Kind.String(),
			Loc: ev.Loc.String(), Path: t.PathString(ev.Path),
			Peer: ev.Peer, Tag: ev.Tag, Bytes: ev.Bytes, Match: ev.Match,
			Root: ev.Root, Comm: ev.Comm,
		}
		if ev.Coll != CollNone {
			je.Coll = ev.Coll.String()
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}
