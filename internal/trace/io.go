package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Binary trace format ("ATS1"):
//
//	magic            [4]byte  "ATS1"
//	regionCount      uvarint
//	regions          regionCount × (uvarint len, bytes)
//	pathCount        uvarint  (including the root node)
//	paths            (pathCount-1) × (uvarint parent, uvarint region)
//	locationCount    uvarint
//	locations        locationCount × (varint rank, varint thread)
//	eventCount       uvarint
//	events           eventCount × fixed encoding (see appendEvent)
//
// All multi-byte integers are varint-encoded; floats are IEEE-754 bits in
// little-endian order.  The format is self-contained: a trace written by
// cmd binaries can be re-read by cmd/atsanalyze and cmd/atstrace.
// doc/FORMATS.md is the normative spec of this encoding and of the ATSC
// chunk-spool variant (see chunk.go).

var magic = [4]byte{'A', 'T', 'S', '1'}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// fixedEventBytes is the fixed-width prefix of an encoded event: Time and
// Aux as little-endian IEEE-754 bits, then the Kind, Coll and Flags bytes.
// maxEventBytes bounds a whole event: the prefix plus ten varints and one
// uvarint.
const (
	fixedEventBytes = 19
	maxEventBytes   = fixedEventBytes + 11*binary.MaxVarintLen64
)

// appendEvent appends ev in the event encoding shared by ATS1 and ATSC
// (doc/FORMATS.md): the fixed prefix, varints rank, thread, region, path,
// peer, crank, tag, bytes, root, comm, and the uvarint match id.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Time))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Aux))
	dst = append(dst, byte(ev.Kind), byte(ev.Coll), ev.Flags)
	dst = binary.AppendVarint(dst, int64(ev.Loc.Rank))
	dst = binary.AppendVarint(dst, int64(ev.Loc.Thread))
	dst = binary.AppendVarint(dst, int64(ev.Region))
	dst = binary.AppendVarint(dst, int64(ev.Path))
	dst = binary.AppendVarint(dst, int64(ev.Peer))
	dst = binary.AppendVarint(dst, int64(ev.CRank))
	dst = binary.AppendVarint(dst, int64(ev.Tag))
	dst = binary.AppendVarint(dst, ev.Bytes)
	dst = binary.AppendVarint(dst, int64(ev.Root))
	dst = binary.AppendVarint(dst, int64(ev.Comm))
	return binary.AppendUvarint(dst, ev.Match)
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
		v, k := binary.Varint(b[n:])
		if k <= 0 {
			return 0, varintErr(k)
		}
		ints[j] = v
		n += k
	}
	match, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, varintErr(k)
	}
	ev.Loc = Location{Rank: int32(ints[0]), Thread: int32(ints[1])}
	ev.Region = RegionID(ints[2])
	ev.Path = PathID(ints[3])
	ev.Peer, ev.CRank, ev.Tag = int32(ints[4]), int32(ints[5]), int32(ints[6])
	ev.Bytes = ints[7]
	ev.Root, ev.Comm = int32(ints[8]), int32(ints[9])
	ev.Match = match
	return n + k, nil
}

// varintErr maps a non-positive binary.Varint/Uvarint length to an error:
// 0 means the buffer ended inside the value, < 0 an overflow.
func varintErr(k int) error {
	if k == 0 {
		return io.ErrUnexpectedEOF
	}
	return errVarintOverflow
}

// Write serializes the trace to w.  It returns the number of bytes written.
func (t *Trace) Write(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	hdr := append([]byte(nil), magic[:]...)
	hdr = binary.AppendUvarint(hdr, uint64(len(t.Regions)))
	for _, r := range t.Regions {
		hdr = appendString(hdr, r)
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(t.PathParent)))
	for i := 1; i < len(t.PathParent); i++ {
		hdr = binary.AppendUvarint(hdr, uint64(t.PathParent[i]))
		hdr = binary.AppendUvarint(hdr, uint64(t.PathRegion[i]))
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(t.Locations)))
	for _, l := range t.Locations {
		hdr = binary.AppendVarint(hdr, int64(l.Rank))
		hdr = binary.AppendVarint(hdr, int64(l.Thread))
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(t.Events)))
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}
	for i := range t.Events {
		// Encode straight into the writer's free space; flushing first
		// guarantees the event fits, so append never reallocates.
		if bw.Available() < maxEventBytes {
			if err := bw.Flush(); err != nil {
				return cw.n, err
			}
		}
		bw.Write(appendEvent(bw.AvailableBuffer(), &t.Events[i])) // cannot fail after a successful Flush
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// WriteFile serializes the trace to the named file.  The write is atomic:
// the trace lands in a temporary file in the same directory and is renamed
// into place only after a successful close, so a crash or write error never
// leaves a truncated trace at path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := t.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// byteScanner is the reader shape the decoding helpers need; both
// *bufio.Reader (trace files) and *bytes.Reader (chunk frames) satisfy it.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

func readString(r byteScanner) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Minimum encoded size of one element of each variable-length section,
// used to bound untrusted header counts against the input size: an input
// of S bytes cannot hold more than S/min elements, so a count above that
// is corrupt and must not drive a speculative allocation.
const (
	minRegionBytes   = 1  // uvarint length (zero-length string)
	minPathBytes     = 2  // uvarint parent + uvarint region
	minLocationBytes = 2  // varint rank + varint thread
	minEventBytes    = 30 // 2 floats + 3 fixed bytes + 10 varints + 1 uvarint
)

// checkCount validates an untrusted element count against the remaining
// input size (size < 0 when unknown).  Even with an unknown size the count
// is bounded so a corrupt header cannot request an implausible allocation;
// the section readers additionally grow their slices incrementally, so the
// transient allocation stays proportional to the bytes actually present.
func checkCount(n uint64, minBytes, size int64, what string) error {
	if size >= 0 && n > uint64(size)/uint64(minBytes) {
		return fmt.Errorf("trace: implausible %s count %d for %d-byte input", what, n, size)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("trace: implausible %s count %d", what, n)
	}
	return nil
}

// sliceCap bounds the initial capacity reserved for n announced elements.
// When the input size is unknown the count can still lie about how much
// data follows, so growth past the cap is left to append, which stops at
// the actual end of input.
func sliceCap(n uint64) int {
	const chunk = 1 << 16
	if n > chunk {
		return chunk
	}
	return int(n)
}

// inputSize reports how many bytes remain in r, or -1 if unknowable
// without consuming the stream.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return int64(v.Len())
	case io.Seeker: // *os.File and friends
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

// Read deserializes a trace written by Write.  Counts in the header are
// untrusted: each is checked for plausibility against the input size (when
// the reader can report one) before any allocation, so a corrupt or
// malicious header claiming, say, 2^60 events fails fast instead of
// attempting a multi-gigabyte allocation.
func Read(r io.Reader) (*Trace, error) {
	return ReadLimited(r, Limits{})
}

// ReadLimited is Read with additional policy caps for untrusted network
// ingest (see Limits); the zero Limits is exactly Read.
func ReadLimited(r io.Reader, lim Limits) (*Trace, error) {
	size := inputSize(r)
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m[:])
	}
	t := &Trace{}
	nRegions, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if err := checkCount(nRegions, minRegionBytes, size, "region"); err != nil {
		return nil, err
	}
	t.Regions = make([]string, 0, sliceCap(nRegions))
	for i := uint64(0); i < nRegions; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		t.Regions = append(t.Regions, s)
	}
	nPaths, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nPaths == 0 {
		return nil, fmt.Errorf("trace: missing path root")
	}
	if err := checkCount(nPaths, minPathBytes, size, "path"); err != nil {
		return nil, err
	}
	t.PathParent = append(make([]PathID, 0, sliceCap(nPaths)), -1)
	t.PathRegion = append(make([]RegionID, 0, sliceCap(nPaths)), -1)
	for i := uint64(1); i < nPaths; i++ {
		p, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		rg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if p >= i || rg >= nRegions {
			return nil, fmt.Errorf("trace: corrupt path table entry %d", i)
		}
		t.PathParent = append(t.PathParent, PathID(p))
		t.PathRegion = append(t.PathRegion, RegionID(rg))
	}
	nLocs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if err := checkCount(nLocs, minLocationBytes, size, "location"); err != nil {
		return nil, err
	}
	if err := lim.checkLocations(nLocs); err != nil {
		return nil, err
	}
	t.Locations = make([]Location, 0, sliceCap(nLocs))
	for i := uint64(0); i < nLocs; i++ {
		rank, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		thread, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		if rank < math.MinInt32 || rank > math.MaxInt32 {
			return nil, fmt.Errorf("trace: location %d: rank %d out of range", i, rank)
		}
		if thread < math.MinInt32 || thread > math.MaxInt32 {
			return nil, fmt.Errorf("trace: location %d: thread %d out of range", i, thread)
		}
		t.Locations = append(t.Locations, Location{Rank: int32(rank), Thread: int32(thread)})
	}
	nEvents, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if err := checkCount(nEvents, minEventBytes, size, "event"); err != nil {
		return nil, err
	}
	if err := lim.checkEvents(nEvents); err != nil {
		return nil, err
	}
	t.Events = make([]Event, 0, sliceCap(nEvents))
	for i := uint64(0); i < nEvents; i++ {
		t.Events = append(t.Events, Event{})
		ev := &t.Events[len(t.Events)-1]
		// Peek returns fewer bytes only at the end of input (or on a read
		// error), where the last event may be shorter than the bound.
		b, perr := br.Peek(maxEventBytes)
		n, err := decodeEvent(b, ev)
		if err != nil {
			if perr != nil && perr != io.EOF {
				err = perr
			}
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		br.Discard(n) // n bytes are buffered: cannot fail
		if int(ev.Path) >= len(t.PathParent) {
			return nil, fmt.Errorf("trace: event %d references unknown path %d", i, ev.Path)
		}
	}
	return t, nil
}

// ReadFile deserializes a trace from the named file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
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
