package trace

import (
	"bufio"
	"encoding/binary"
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

// Event fields past the time, kind and path, in the order an event
// encodes them: bit i of an event's field mask is set when field i is
// non-zero and follows in the encoding (doc/FORMATS.md §1.1).  The
// location is the frame's, and an enter or exit event's region is its
// path's leaf, so neither is a field.
const (
	fieldAux    = 1 << iota // float64
	fieldMatch              // uvarint
	fieldCRank              // varint
	fieldPeer               // varint
	fieldBytes              // varint
	fieldTag                // varint
	fieldColl               // byte
	fieldRoot               // varint
	fieldParts              // varint
	fieldComm               // varint
	fieldFlags              // byte
	fieldRegion             // varint; never on an enter or exit event
	fieldKindHi             // byte: the kind's high four bits
	fieldsEnd
)

// kindBits is the width of the kind's low bits in an event's header; the
// field mask sits above them.
const kindBits = 4

// maxEventBytes bounds an encoded event: the time, a header of kindBits
// and 13 mask bits (3 bytes), the path, the Aux float, the Match and
// Bytes 64-bit varints, seven int32 varints and three bytes.
const maxEventBytes = 8 + 3 + binary.MaxVarintLen32 + 8 + 2*binary.MaxVarintLen64 + 7*binary.MaxVarintLen32 + 3

// appendEvent appends ev in the event encoding (doc/FORMATS.md §1.1):
// the time, a uvarint header holding the kind's low bits and the mask of
// non-zero fields, the uvarint path, then the fields the mask names.  It
// encodes into room for maxEventBytes at dst's end, so it grows dst only
// when that room is missing.  ev.Loc is not encoded, nor an enter or exit
// event's Region.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = slices.Grow(dst, maxEventBytes)
	n := len(dst)
	b := dst[n : n+maxEventBytes]
	binary.LittleEndian.PutUint64(b, math.Float64bits(ev.Time))
	mask := eventMask(ev)
	k := 8
	k += binary.PutUvarint(b[k:], mask<<kindBits|uint64(ev.Kind&(1<<kindBits-1)))
	k += binary.PutUvarint(b[k:], uint64(uint32(ev.Path)))
	if mask == 0 {
		return dst[:n+k]
	}
	if mask&fieldAux != 0 {
		binary.LittleEndian.PutUint64(b[k:], math.Float64bits(ev.Aux))
		k += 8
	}
	if mask&fieldMatch != 0 {
		k += binary.PutUvarint(b[k:], ev.Match)
	}
	if mask&fieldCRank != 0 {
		k += binary.PutVarint(b[k:], int64(ev.CRank))
	}
	if mask&fieldPeer != 0 {
		k += binary.PutVarint(b[k:], int64(ev.Peer))
	}
	if mask&fieldBytes != 0 {
		k += binary.PutVarint(b[k:], ev.Bytes)
	}
	if mask&fieldTag != 0 {
		k += binary.PutVarint(b[k:], int64(ev.Tag))
	}
	if mask&fieldColl != 0 {
		b[k] = byte(ev.Coll)
		k++
	}
	if mask&fieldRoot != 0 {
		k += binary.PutVarint(b[k:], int64(ev.Root))
	}
	if mask&fieldParts != 0 {
		k += binary.PutVarint(b[k:], int64(ev.Parts))
	}
	if mask&fieldComm != 0 {
		k += binary.PutVarint(b[k:], int64(ev.Comm))
	}
	if mask&fieldFlags != 0 {
		b[k] = ev.Flags
		k++
	}
	if mask&fieldRegion != 0 {
		k += binary.PutVarint(b[k:], int64(ev.Region))
	}
	if mask&fieldKindHi != 0 {
		b[k] = byte(ev.Kind >> kindBits)
		k++
	}
	return dst[:n+k]
}

// eventMask returns the mask of ev's non-zero fields.  Aux counts as
// non-zero by its bits, so -0 and every NaN survive the round trip.
func eventMask(ev *Event) uint64 {
	var m uint64
	if math.Float64bits(ev.Aux) != 0 {
		m |= fieldAux
	}
	if ev.Match != 0 {
		m |= fieldMatch
	}
	if ev.CRank != 0 {
		m |= fieldCRank
	}
	if ev.Peer != 0 {
		m |= fieldPeer
	}
	if ev.Bytes != 0 {
		m |= fieldBytes
	}
	if ev.Tag != 0 {
		m |= fieldTag
	}
	if ev.Coll != 0 {
		m |= fieldColl
	}
	if ev.Root != 0 {
		m |= fieldRoot
	}
	if ev.Parts != 0 {
		m |= fieldParts
	}
	if ev.Comm != 0 {
		m |= fieldComm
	}
	if ev.Flags != 0 {
		m |= fieldFlags
	}
	if ev.Region != 0 && ev.Kind != KindEnter && ev.Kind != KindExit {
		m |= fieldRegion
	}
	if ev.Kind>>kindBits != 0 {
		m |= fieldKindHi
	}
	return m
}

var (
	errVarintOverflow = errors.New("trace: varint overflows a 64-bit integer")
	errUnknownFields  = errors.New("trace: event names unknown fields")
	errEnterRegion    = errors.New("trace: enter/exit event carries a region field")
)

// decodeEvent decodes the event at the front of b (the appendEvent
// encoding) into ev and returns the number of bytes it took.  Every field
// the encoding omits is zero in ev: the caller sets the location, and an
// enter or exit event's region, from the frame.  A buffer that ends
// inside the event yields io.ErrUnexpectedEOF.  Callers validate the
// decoded ids against their own tables.
func decodeEvent(b []byte, ev *Event) (int, error) {
	if len(b) < minEventBytes {
		return 0, io.ErrUnexpectedEOF
	}
	t := math.Float64frombits(binary.LittleEndian.Uint64(b))
	// The header and the path are a byte each in most events.
	n := 8
	h := uint64(b[n])
	if h < 0x80 {
		n++
	} else {
		var k int
		if h, k = binary.Uvarint(b[n:]); k <= 0 {
			return 0, varintErr(k)
		}
		n += k
	}
	var p uint64
	if n < len(b) && b[n] < 0x80 {
		p = uint64(b[n])
		n++
	} else {
		var k int
		if p, k = binary.Uvarint(b[n:]); k <= 0 {
			return 0, varintErr(k)
		}
		n += k
	}
	*ev = Event{Time: t, Kind: Kind(h & (1<<kindBits - 1)), Path: PathID(int32(uint32(p)))}
	mask := h >> kindBits
	if mask == 0 {
		return n, nil
	}
	if mask >= fieldsEnd {
		return 0, errUnknownFields
	}
	f := fieldReader{b: b, n: n}
	if mask&fieldAux != 0 {
		ev.Aux = math.Float64frombits(f.fixed64())
	}
	if mask&fieldMatch != 0 {
		ev.Match = f.uvarint()
	}
	if mask&fieldCRank != 0 {
		ev.CRank = int32(f.varint())
	}
	if mask&fieldPeer != 0 {
		ev.Peer = int32(f.varint())
	}
	if mask&fieldBytes != 0 {
		ev.Bytes = f.varint()
	}
	if mask&fieldTag != 0 {
		ev.Tag = int32(f.varint())
	}
	if mask&fieldColl != 0 {
		ev.Coll = CollKind(f.u8())
	}
	if mask&fieldRoot != 0 {
		ev.Root = int32(f.varint())
	}
	if mask&fieldParts != 0 {
		ev.Parts = int32(f.varint())
	}
	if mask&fieldComm != 0 {
		ev.Comm = int32(f.varint())
	}
	if mask&fieldFlags != 0 {
		ev.Flags = f.u8()
	}
	if mask&fieldRegion != 0 {
		ev.Region = RegionID(f.varint())
	}
	if mask&fieldKindHi != 0 {
		ev.Kind |= Kind(f.u8() << kindBits)
	}
	if f.err != nil {
		return 0, f.err
	}
	if mask&fieldRegion != 0 && (ev.Kind == KindEnter || ev.Kind == KindExit) {
		return 0, errEnterRegion
	}
	return f.n, nil
}

// fieldReader reads an event's fields from b at n.  Its first error is
// sticky: every later read returns zero, and err reports it.
type fieldReader struct {
	b   []byte
	n   int
	err error
}

func (f *fieldReader) fixed64() uint64 {
	if f.err != nil || len(f.b)-f.n < 8 {
		f.fail(0)
		return 0
	}
	v := binary.LittleEndian.Uint64(f.b[f.n:])
	f.n += 8
	return v
}

func (f *fieldReader) u8() byte {
	if f.err != nil || f.n >= len(f.b) {
		f.fail(0)
		return 0
	}
	f.n++
	return f.b[f.n-1]
}

func (f *fieldReader) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	v, k := binary.Uvarint(f.b[f.n:])
	if k <= 0 {
		f.fail(k)
		return 0
	}
	f.n += k
	return v
}

func (f *fieldReader) varint() int64 {
	if f.err != nil {
		return 0
	}
	v, k := binary.Varint(f.b[f.n:])
	if k <= 0 {
		f.fail(k)
		return 0
	}
	f.n += k
	return v
}

// fail records the error of a read that found k bytes (see varintErr).
func (f *fieldReader) fail(k int) {
	if f.err == nil {
		f.err = varintErr(k)
	}
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
		case (ev.Kind == KindEnter || ev.Kind == KindExit) && (ev.Path == PathRoot || t.PathRegion[ev.Path] != ev.Region):
			// The encoding takes an enter or exit event's region from
			// its path, as Buffer.Enter and Exit record it.
			return fmt.Errorf("trace: %v event %d: region %d is not the leaf of its path %d", ev.Kind, i, ev.Region, ev.Path)
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
			// An enter or exit event's region is its path's leaf, which
			// localPath interns; the encoding carries no other.
			ev := t.Events[i]
			ev.Path = localPath(ev.Path)
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
	spool := getSpool()
	defer spool.Release()
	if _, err := io.Copy(spool, r); err != nil {
		return nil, err
	}
	return spool.read()
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
	minEventBytes  = 10 // time + one-byte header + one-byte path
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
