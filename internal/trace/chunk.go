package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Chunked trace spool format ("ATSC") — the one serialized shape of a
// trace, in a file or in memory.  A spool is a multiplex of per-location
// chunk frames appended while a run executes, so no executor ever holds
// more than one chunk of events in memory; Trace.Write spools a merged
// trace the same way.  A single spool carries every location (one file
// per rank would exhaust file-descriptor limits at large rank counts); an
// index footer lets readers walk each location's frames independently
// via ReadAt.
//
//	header   magic "ATSC", version byte (2)
//	frames   frame*
//	frame    tag 0x01, uvarint bodyLen, body
//	         tag 0x00 ends the frame section
//	body     varint rank, varint thread            (owning location)
//	         uvarint nNewRegions, nNewRegions × (uvarint len, bytes)
//	         uvarint nNewPaths,  nNewPaths × (uvarint parent, uvarint region)
//	         uvarint nEvents,    nEvents × event   (appendEvent encoding)
//	index    uvarint nStreams, nStreams × stream   (sorted rank-major)
//	stream   varint rank, varint thread, uvarint totalEvents,
//	         uvarint nFrames, nFrames × (uvarint bodyOff, uvarint bodyLen)
//	trailer  8-byte LE index offset, magic "ATSX"
//
// Region and path ids inside a frame are local to the owning location's
// buffer; each frame carries the delta of its intern tables since the
// previous frame, so a reader reconstructs the tables by applying frames
// in order (parents always precede children).  Every count is validated
// against the enclosing byte range before allocation (checkCount).
// doc/FORMATS.md is the normative spec.

var (
	chunkMagic        = [4]byte{'A', 'T', 'S', 'C'}
	chunkTrailerMagic = [4]byte{'A', 'T', 'S', 'X'}
)

const (
	chunkVersion    = 2
	chunkHeaderLen  = 5  // magic + version
	chunkTrailerLen = 12 // index offset + trailer magic
	chunkTagEnd     = 0x00
	chunkTagFrame   = 0x01
	// minFrameBodyBytes is the smallest legal frame body: two location
	// varints plus three zero counts.
	minFrameBodyBytes = 5
	// minStreamIndexBytes bounds the per-stream index entry size: two
	// location varints plus two counts.
	minStreamIndexBytes = 4
)

// DefaultSpillEvents is the per-location event count that triggers a chunk
// flush when a Buffer is attached to a ChunkWriter.  A streamed buffer
// holds its pending events encoded, so its pending frame takes at most
// DefaultSpillEvents × max(frameEventBytes, the largest encoded event):
// 256 bytes per location unless a frame's events average more than 16 B.
// A merge cursor holds one such frame raw.  The frame index is not
// bounded by locations: the writer keeps a 16-byte frameRef per frame
// until Close and the reader parses the same refs until its stream is
// drained, O(events / spill) on each side — 1 B per event at 16, about
// 2 MB for a 16384-rank scale world.  16 is the knee: 64 held four times the frame bytes on both
// sides, and 8 cost merge throughput (more, shorter ReadAt calls) for
// little heap.
const DefaultSpillEvents = 16

// frameEventBytes is the encoded event size a fresh frame makes room for.
// An enter or exit event takes 10 B and the events of a 16384-rank scale
// world 13.6 B on average, so most frames never grow: none of the 98,304
// frames of such a world at the default threshold did.
const frameEventBytes = 16

// chunkStream is the writer-side state of one location's frame sequence.
type chunkStream struct {
	regions  int // intern-table entries already written
	paths    int
	events   uint64
	frames   []frameRef
	finished bool
}

// frameRef locates one frame body inside the spool file.
type frameRef struct {
	off, len int64
}

// ChunkWriter spools per-location trace buffers into a single ATSC
// stream.  All methods are safe for concurrent use; frames and the index
// go, in order, through one io.Writer.
//
// NewChunkWriter spools to a file: it writes a temporary file and renames
// it into place on Close, so a crash never leaves a truncated spool at
// the target path.  NewChunkWriterTo spools into any writer, e.g. a
// bytes.Buffer for a run small enough to hold.
type ChunkWriter struct {
	mu        sync.Mutex
	out       io.Writer
	file      *spoolFile // nil unless the spool lands at a path
	off       int64
	threshold int
	streams   map[Location]*chunkStream
	scratch   []byte                          // frame envelope and index encoding, reused
	hdr       [1 + binary.MaxVarintLen64]byte // frame tag and length, reused
	frames    [][]byte                        // frame bytes of finished buffers, for the next Attach
	err       error
	closed    bool
}

// spoolFile is the temporary file behind a path-backed ChunkWriter.
type spoolFile struct {
	path, tmp string
	f         *os.File
	bw        *bufio.Writer
}

// commit flushes the temporary file and renames it to the target path.
func (sf *spoolFile) commit() error {
	if err := sf.bw.Flush(); err != nil {
		sf.discard()
		return err
	}
	if err := sf.f.Close(); err != nil {
		os.Remove(sf.tmp)
		return err
	}
	if err := os.Rename(sf.tmp, sf.path); err != nil {
		os.Remove(sf.tmp)
		return err
	}
	return nil
}

// discard closes and removes the temporary file.
func (sf *spoolFile) discard() {
	sf.f.Close()
	os.Remove(sf.tmp)
}

// NewChunkWriter creates a spool that will land at path on Close.
// spillEvents is the per-location event count that triggers a frame flush;
// values <= 0 select DefaultSpillEvents.
func NewChunkWriter(path string, spillEvents int) (*ChunkWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	sf := &spoolFile{path: path, tmp: f.Name(), f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	w := NewChunkWriterTo(sf.bw, spillEvents)
	w.file = sf
	return w, nil
}

// WriteSpool runs run with a ChunkWriter spooling to path and closes it.
// When run fails the spool is aborted, so nothing lands at path.
func WriteSpool(path string, run func(*ChunkWriter) error) error {
	w, err := NewChunkWriter(path, DefaultSpillEvents)
	if err != nil {
		return err
	}
	return runSpool(w, run)
}

// runSpool runs run with w and closes w, or aborts it when run fails.
func runSpool(w *ChunkWriter, run func(*ChunkWriter) error) error {
	if err := run(w); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// NewChunkWriterTo creates a spool written to dst as the run goes.  Close
// completes the stream but does not close dst.  A write error is sticky
// like any other spool error; after one, dst holds no valid spool.
// spillEvents is as for NewChunkWriter.
func NewChunkWriterTo(dst io.Writer, spillEvents int) *ChunkWriter {
	if spillEvents <= 0 {
		spillEvents = DefaultSpillEvents
	}
	w := &ChunkWriter{
		out:       dst,
		threshold: spillEvents,
		streams:   make(map[Location]*chunkStream),
	}
	w.write(append(chunkMagic[:], chunkVersion))
	return w
}

// write appends b to the spool, recording a write error as sticky.
func (w *ChunkWriter) write(b []byte) bool {
	n, err := w.out.Write(b)
	w.off += int64(n)
	if err != nil {
		w.fail(err)
		return false
	}
	return true
}

// fail records the first error; later operations keep draining buffers so
// executors are never blocked by a broken spool.
func (w *ChunkWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the sticky error, if any.
func (w *ChunkWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Attach registers b with the writer and arranges for its events to be
// spilled as they accumulate.  b must be fresh from NewBuffer: events it
// recorded before Attach would be lost, so they are an error.  Attaching
// two buffers with the same location is an error too.  Errors inside a
// writer are sticky: recording continues (events are dropped) and the
// first error is reported by Finish, Err and Close.
func (w *ChunkWriter) Attach(b *Buffer) {
	if b == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if b.pending > 0 {
		w.fail(fmt.Errorf("trace: chunk writer: Attach(%v) after recording", b.Loc))
		return
	}
	s := w.open(b.Loc)
	if s == nil {
		return
	}
	b.sink = w
	b.stream = s
	b.spillAt = w.threshold
	// The buffer holds one frame's events, encoded.  A finished buffer's
	// frame bytes serve the next one attached: short-lived locations, such
	// as the threads of successive OpenMP parallel regions, share a few.
	// A fresh frame has room for frameEventBytes per event and only grows
	// for larger events (Buffer.encode).  The frame a pooled buffer brings
	// from Merge is dropped rather than kept alive for the whole stream.
	if n := len(w.frames); n > 0 {
		b.frame, w.frames = w.frames[n-1], w.frames[:n-1]
	} else {
		b.frame = make([]byte, 0, w.threshold*frameEventBytes)
	}
}

// open starts the stream of loc and returns it, or nil after a sticky
// error.
func (w *ChunkWriter) open(loc Location) *chunkStream {
	if w.closed {
		w.fail(fmt.Errorf("trace: chunk writer: Attach(%v) after Close", loc))
		return nil
	}
	if _, dup := w.streams[loc]; dup {
		w.fail(fmt.Errorf("trace: chunk writer: duplicate stream for location %v", loc))
		return nil
	}
	s := &chunkStream{paths: 1} // the path root is implicit
	w.streams[loc] = s
	return s
}

// writeBuffer spools every event b holds, with its intern tables, as one
// frame and ends b's stream, leaving b unchanged: Merge's whole-buffer
// write.
func (w *ChunkWriter) writeBuffer(b *Buffer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s := w.open(b.Loc); s != nil {
		w.spillLocked(b, s)
		s.finished = true
	}
}

// spill flushes b's pending events as one frame.  Called by the buffer's
// owning goroutine whenever the frame reaches the spill threshold.
func (w *ChunkWriter) spill(b *Buffer) {
	w.mu.Lock()
	w.spillLocked(b, b.stream)
	w.mu.Unlock()
	// Always drop the events, even on a sticky error: the point of
	// streaming is bounding memory, and the run's result is discarded
	// anyway once Finish/Close report the error.
	b.frame = b.frame[:0]
	b.pending = 0
}

// spillLocked writes b's pending events and table deltas as one frame of
// b's stream s.
func (w *ChunkWriter) spillLocked(b *Buffer, s *chunkStream) {
	if s == nil || s.finished {
		w.fail(fmt.Errorf("trace: chunk writer: spill from unattached buffer %v", b.Loc))
		return
	}
	if w.err != nil || w.closed {
		return
	}
	nr := len(b.regions) - s.regions
	np := len(b.pathParent) - s.paths
	ne := b.pending
	if nr == 0 && np == 0 && ne == 0 {
		return
	}
	sc := w.scratch[:0]
	sc = binary.AppendVarint(sc, int64(b.Loc.Rank))
	sc = binary.AppendVarint(sc, int64(b.Loc.Thread))
	sc = binary.AppendUvarint(sc, uint64(nr))
	for _, name := range b.regions[s.regions:] {
		sc = appendString(sc, name)
	}
	sc = binary.AppendUvarint(sc, uint64(np))
	for i := s.paths; i < len(b.pathParent); i++ {
		sc = binary.AppendUvarint(sc, uint64(b.pathParent[i]))
		sc = binary.AppendUvarint(sc, uint64(b.pathRegion[i]))
	}
	sc = binary.AppendUvarint(sc, uint64(ne))
	w.scratch = sc
	// The events follow the envelope as the buffer encoded them.
	bodyLen := len(sc) + len(b.frame)
	w.hdr[0] = chunkTagFrame
	n := 1 + binary.PutUvarint(w.hdr[1:], uint64(bodyLen))
	if !w.write(w.hdr[:n]) {
		return
	}
	bodyOff := w.off
	if !w.write(sc) || !w.write(b.frame) {
		return
	}
	s.frames = append(s.frames, frameRef{off: bodyOff, len: int64(bodyLen)})
	s.regions += nr
	s.paths += np
	s.events += uint64(ne)
}

// Finish flushes b's tail frame and intern-table deltas, marks the stream
// complete, and detaches the buffer.  The buffer's executor must have
// stopped recording.
func (w *ChunkWriter) Finish(b *Buffer) error {
	if b == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.streams[b.Loc]
	if s == nil {
		err := fmt.Errorf("trace: chunk writer: Finish on unattached buffer %v", b.Loc)
		w.fail(err)
		return err
	}
	if !s.finished {
		w.spillLocked(b, s)
		s.finished = true
	}
	// Keep the frame bytes for the next Attach instead of parking them in
	// bufferPool with the buffer: Close drops them, so a streamed run's
	// frames never outlive the run into the merge.
	if b.frame != nil && !w.closed {
		w.frames = append(w.frames, b.frame[:0])
	}
	b.frame = nil
	b.pending = 0
	b.sink = nil
	b.stream = nil
	b.spillAt = 0
	return w.err
}

// Close ends the frame section and writes the index and trailer; a
// path-backed spool is then renamed into place.  Every attached buffer
// must have been finished.  On error (including any sticky spill error) a
// path-backed spool's temporary file is removed and nothing lands at the
// target path.
func (w *ChunkWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	w.frames = nil
	for loc, s := range w.streams {
		if !s.finished {
			w.fail(fmt.Errorf("trace: chunk writer: Close with unfinished stream %v", loc))
			break
		}
	}
	if w.err != nil {
		if w.file != nil {
			w.file.discard()
		}
		return w.err
	}
	indexOff := w.off + 1 // after the end tag
	locs := make([]Location, 0, len(w.streams))
	for loc := range w.streams {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].less(locs[j]) })
	idx := append(w.scratch[:0], chunkTagEnd)
	idx = binary.AppendUvarint(idx, uint64(len(locs)))
	for _, loc := range locs {
		s := w.streams[loc]
		idx = binary.AppendVarint(idx, int64(loc.Rank))
		idx = binary.AppendVarint(idx, int64(loc.Thread))
		idx = binary.AppendUvarint(idx, s.events)
		idx = binary.AppendUvarint(idx, uint64(len(s.frames)))
		for _, fr := range s.frames {
			idx = binary.AppendUvarint(idx, uint64(fr.off))
			idx = binary.AppendUvarint(idx, uint64(fr.len))
		}
	}
	idx = binary.LittleEndian.AppendUint64(idx, uint64(indexOff))
	idx = append(idx, chunkTrailerMagic[:]...)
	w.write(idx)
	w.scratch = nil
	// A path-backed spool's write errors are sticky in its bufio.Writer,
	// so commit fails and discards the file after any failed write.
	if w.file != nil {
		if err := w.file.commit(); err != nil {
			w.fail(err)
		}
	}
	return w.err
}

// Abort discards the spool: a path-backed spool lands nothing at the
// target path.  Safe to call at any time (including after Close, where it
// is a no-op); buffers still attached keep draining into the void.
func (w *ChunkWriter) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.frames = nil
	w.fail(errors.New("trace: chunk writer aborted"))
	if w.file != nil {
		w.file.discard()
	}
}

// chunkIndexEntry is the reader-side index of one location's frames.
type chunkIndexEntry struct {
	loc    Location
	events uint64
	frames []frameRef
}

// ChunkReader opens an ATSC spool for streaming.  Per-location cursors
// read frames via ReadAt on the shared source, so a k-way merge over all
// locations holds one raw frame per location and no decoded event (an
// event is decoded when the merge delivers it), plus the parsed index: a
// 16-byte frameRef per frame, O(events / spill), which the stream drops
// once it is drained.  A spool file is read through one read-ahead
// window (windowReader).  Obtain an event stream with NewStream.  A
// reader belongs to the one stream made from it (NewStream over a reader
// a stream drained fails), and a reader and its stream are used by one
// goroutine at a time.
type ChunkReader struct {
	src      io.ReaderAt
	closer   io.Closer // the spool file OpenChunkFile opened, else nil
	indexOff int64
	lim      Limits
	streams  []chunkIndexEntry
	names    map[string]string // region names, shared by the cursors (name)
	spent    bool              // a stream drained it; see release
}

// OpenChunkFile opens and validates the spool at path: magic, version,
// trailer, and every index entry (locations sorted and distinct, frame
// ranges inside the frame section, counts plausible for the file size).
func OpenChunkFile(path string) (*ChunkReader, error) {
	return OpenChunkFileLimited(path, Limits{})
}

// OpenChunkFileLimited is OpenChunkFile with additional policy caps for
// untrusted network ingest (see Limits); the zero Limits is exactly
// OpenChunkFile.
func OpenChunkFileLimited(path string, lim Limits) (*ChunkReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewChunkFileReader(f, lim)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.closer = f
	return r, nil
}

// NewChunkFileReader validates the spool in the open file f as
// NewChunkReader does, and reads it through a read-ahead window of
// readWindow bytes: Stream.ForEach reads frames in file order, and a
// virtual-time merge reads them nearly so, so most frame reads are
// copies from the window.  The
// reader does not take ownership of f.
func NewChunkFileReader(f *os.File, lim Limits) (*ChunkReader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return NewChunkReader(newWindowReader(f, st.Size()), st.Size(), lim)
}

// readWindow is the size of a spool file's read-ahead window.  A frame
// of a 16384-rank scale world is ~240 bytes, so one window read serves
// over 250 frame reads.
const readWindow = 64 << 10

// windowReader serves reads from one window of its source: a read inside
// the window is a copy, and any other read no larger than the window
// refills it from the read's offset.  A larger read bypasses the window.
// It is not safe for concurrent use.
type windowReader struct {
	src io.ReaderAt
	buf []byte // buf[:n] holds the source's bytes from off
	off int64
	n   int
}

// newWindowReader returns a window over the size-byte src, no larger
// than the source.
func newWindowReader(src io.ReaderAt, size int64) *windowReader {
	return &windowReader{src: src, buf: make([]byte, min(readWindow, size))}
}

// ReadAt implements io.ReaderAt.
func (w *windowReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= w.off && off-w.off <= int64(w.n-len(p)) {
		return copy(p, w.buf[off-w.off:]), nil
	}
	if len(p) > len(w.buf) {
		return w.src.ReadAt(p, off)
	}
	n, err := w.src.ReadAt(w.buf, off)
	w.off, w.n = off, n
	if n >= len(p) {
		return copy(p, w.buf), nil
	}
	return copy(p, w.buf[:n]), err
}

// NewChunkReader validates the size-byte spool in src exactly as
// OpenChunkFileLimited validates a file, e.g. a spool written into a
// bytes.Buffer and read back through bytes.NewReader.  The reader does
// not take ownership of src: its Close does not close src.
func NewChunkReader(src io.ReaderAt, size int64, lim Limits) (*ChunkReader, error) {
	if size < chunkHeaderLen+1+chunkTrailerLen {
		return nil, fmt.Errorf("trace: chunk file too short (%d bytes)", size)
	}
	var hdr [chunkHeaderLen]byte
	if err := readAt(src, hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading chunk header: %w", err)
	}
	if [4]byte(hdr[:4]) != chunkMagic {
		return nil, fmt.Errorf("trace: bad chunk magic %q", hdr[:4])
	}
	if hdr[4] != chunkVersion {
		return nil, fmt.Errorf("trace: unsupported chunk version %d (want %d)", hdr[4], chunkVersion)
	}
	var tail [chunkTrailerLen]byte
	if err := readAt(src, tail[:], size-chunkTrailerLen); err != nil {
		return nil, fmt.Errorf("trace: reading chunk trailer: %w", err)
	}
	if [4]byte(tail[8:]) != chunkTrailerMagic {
		return nil, fmt.Errorf("trace: bad chunk trailer magic %q", tail[8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if indexOff < chunkHeaderLen+1 || indexOff > size-chunkTrailerLen {
		return nil, fmt.Errorf("trace: chunk index offset %d outside file", indexOff)
	}
	idx := make([]byte, size-chunkTrailerLen-indexOff)
	if err := readAt(src, idx, indexOff); err != nil {
		return nil, fmt.Errorf("trace: reading chunk index: %w", err)
	}
	r := &ChunkReader{src: src, indexOff: indexOff, lim: lim, names: make(map[string]string)}
	if err := r.parseIndex(idx); err != nil {
		return nil, err
	}
	return r, nil
}

// readAt fills p from src at off.  A full read is a success even with
// io.EOF, which the io.ReaderAt contract allows at the end of the source.
func readAt(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case err == nil:
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *ChunkReader) parseIndex(idx []byte) error {
	nStreams, b, err := cutUvarint(idx)
	if err != nil {
		return fmt.Errorf("trace: chunk index: %w", err)
	}
	if err := checkCount(nStreams, minStreamIndexBytes, int64(len(idx)), "chunk stream"); err != nil {
		return err
	}
	if err := r.lim.checkLocations(nStreams); err != nil {
		return err
	}
	bodySize := r.indexOff - chunkHeaderLen
	var totalEvents uint64
	r.streams = make([]chunkIndexEntry, 0, sliceCap(nStreams))
	for i := uint64(0); i < nStreams; i++ {
		var rank, thread int64
		var events, nFrames uint64
		rank, b, err = cutVarint(b)
		if err == nil {
			thread, b, err = cutVarint(b)
		}
		if err == nil {
			events, b, err = cutUvarint(b)
		}
		if err == nil {
			nFrames, b, err = cutUvarint(b)
		}
		if err != nil {
			return fmt.Errorf("trace: chunk index stream %d: %w", i, err)
		}
		if rank < math.MinInt32 || rank > math.MaxInt32 || thread < math.MinInt32 || thread > math.MaxInt32 {
			return fmt.Errorf("trace: chunk index stream %d: location %d.%d out of range", i, rank, thread)
		}
		loc := Location{Rank: int32(rank), Thread: int32(thread)}
		if n := len(r.streams); n > 0 && !r.streams[n-1].loc.less(loc) {
			return fmt.Errorf("trace: chunk index: locations unsorted or duplicated at %v", loc)
		}
		totalEvents += events
		if err := checkCount(totalEvents, minEventBytes, bodySize, "chunk event"); err != nil {
			return err
		}
		if err := r.lim.checkEvents(totalEvents); err != nil {
			return err
		}
		if err := checkCount(nFrames, minFrameBodyBytes+2, bodySize, "chunk frame"); err != nil {
			return err
		}
		frames := make([]frameRef, 0, sliceCap(nFrames))
		for j := uint64(0); j < nFrames; j++ {
			var off, ln uint64
			off, b, err = cutUvarint(b)
			if err == nil {
				ln, b, err = cutUvarint(b)
			}
			if err != nil {
				return fmt.Errorf("trace: chunk index stream %d frame %d: %w", i, j, err)
			}
			if off < chunkHeaderLen || ln < minFrameBodyBytes ||
				off > uint64(r.indexOff) || ln > uint64(r.indexOff) || off+ln > uint64(r.indexOff) {
				return fmt.Errorf("trace: chunk index stream %d frame %d: range [%d,%d) outside frame section", i, j, off, off+ln)
			}
			if err := r.lim.checkFrame(int64(ln)); err != nil {
				return fmt.Errorf("chunk index stream %d frame %d: %w", i, j, err)
			}
			frames = append(frames, frameRef{off: int64(off), len: int64(ln)})
		}
		r.streams = append(r.streams, chunkIndexEntry{loc: loc, events: events, frames: frames})
	}
	if len(b) != 0 {
		return fmt.Errorf("trace: chunk index: %d trailing bytes", len(b))
	}
	return nil
}

// cutUvarint, cutVarint and cutBytes decode the value at the front of b
// and return it with the rest of b.
func cutUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, b, varintErr(k)
	}
	return v, b[k:], nil
}

func cutVarint(b []byte) (int64, []byte, error) {
	v, k := binary.Varint(b)
	if k <= 0 {
		return 0, b, varintErr(k)
	}
	return v, b[k:], nil
}

// maxStringBytes caps a region name.
const maxStringBytes = 1 << 20

func cutBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := cutUvarint(b)
	switch {
	case err != nil:
		return nil, b, err
	case n > maxStringBytes:
		return nil, b, fmt.Errorf("trace: implausible string length %d", n)
	case n > uint64(len(b)):
		return nil, b, io.ErrUnexpectedEOF
	}
	return b[:n], b[n:], nil
}

// name returns a region name as a string shared by every location of the
// spool that names the region, so a name every rank uses costs one
// string, not one per location.
func (r *ChunkReader) name(b []byte) string {
	s, ok := r.names[string(b)]
	if !ok {
		s = string(b)
		r.names[s] = s
	}
	return s
}

// Locations returns the spool's locations in rank-major order.
func (r *ChunkReader) Locations() []Location {
	locs := make([]Location, len(r.streams))
	for i := range r.streams {
		locs[i] = r.streams[i].loc
	}
	return locs
}

// Events returns the total event count recorded in the index.
func (r *ChunkReader) Events() int {
	var n uint64
	for i := range r.streams {
		n += r.streams[i].events
	}
	return int(n)
}

// release drops the parsed frame index and the region-name map once a
// stream has read every frame; what Locations and Events read stays.
// The reader is spent: a further NewStream over it fails.
func (r *ChunkReader) release() {
	for i := range r.streams {
		r.streams[i].frames = nil
	}
	r.names = nil
	r.spent = true
}

// errReaderSpent is NewStream's error for a reader a stream drained.
var errReaderSpent = errors.New("trace: stream: chunk reader already drained by another stream")

// Close releases the spool file OpenChunkFile opened; for a reader from
// NewChunkReader it is a no-op.
func (r *ChunkReader) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// chunkCursor iterates one location's frames, maintaining the location's
// locally-interned region and path tables across frames.  Of the events
// it keeps only the current frame's raw bytes and the read offset of the
// next one, and decodes an event only when pop delivers it.  The merge
// (Stream.Next) reuses each cursor's frame buffer from frame to frame and
// orders cursors by the next event's time, which ready reads from the
// encoding's first eight bytes; Stream.ForEach reads each frame with
// readFrame into a buffer it shares among the cursors and releases the
// frame once delivered, so between its frames a cursor holds none.
type chunkCursor struct {
	r          *ChunkReader
	ent        *chunkIndexEntry
	fi         int
	delivered  uint64
	regions    []string
	pathParent []PathID
	pathRegion []RegionID
	buf        []byte
	off        int    // next event's offset in buf
	left       uint64 // events of the current frame not yet delivered
	evIdx      uint64 // index in the current frame of the next event
}

// cursorTables is the intern-table room each cursor is carved at; a
// location that interns more grows its own tables.  Each location of a
// 16384-rank scale world interns 6 regions and 7 paths.
const cursorTables = 8

// cursors returns one cursor per location.  Their intern tables are
// carved from per-reader slabs.  A spent reader has no frames left to
// give them.
func (r *ChunkReader) cursors() ([]*chunkCursor, error) {
	if r.spent {
		return nil, errReaderSpent
	}
	n := len(r.streams)
	slab := make([]chunkCursor, n)
	regions := make([]string, n*cursorTables)
	pathParent := make([]PathID, n*cursorTables)
	pathRegion := make([]RegionID, n*cursorTables)
	cs := make([]*chunkCursor, n)
	for i := range r.streams {
		c := &slab[i]
		c.r = r
		c.ent = &r.streams[i]
		lo, hi := i*cursorTables, (i+1)*cursorTables
		c.regions = regions[lo:lo:hi]
		c.pathParent = append(pathParent[lo:lo:hi], -1) // the root path
		c.pathRegion = append(pathRegion[lo:lo:hi], -1)
		cs[i] = c
	}
	return cs, nil
}

func (c *chunkCursor) loc() Location { return c.ent.loc }

func (c *chunkCursor) corrupt(format string, args ...any) error {
	return fmt.Errorf("trace: chunk stream %v: corrupt frame: %s", c.ent.loc, fmt.Sprintf(format, args...))
}

// ready positions the cursor at its next event, reading frames (and
// their intern-table deltas) until one holds an event, and returns that
// event's time.  ok is false once the stream is exhausted.
func (c *chunkCursor) ready() (t float64, ok bool, err error) {
	for c.left == 0 {
		if err := c.frameDone(); err != nil {
			return 0, false, err
		}
		if done, err := c.exhausted(); done || err != nil {
			return 0, false, err
		}
		if err := c.readFrame(c.buf); err != nil {
			return 0, false, err
		}
	}
	// An event too short to hold its time is reported here, one event
	// early; any other fault of an event is reported by pop.
	b := c.buf[c.off:]
	if len(b) < 8 {
		return 0, false, c.corrupt("event %d: %v", c.evIdx, io.ErrUnexpectedEOF)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), true, nil
}

// frameDone checks the current frame once all its events are delivered:
// nothing may follow its last event.
func (c *chunkCursor) frameDone() error {
	if rest := len(c.buf) - c.off; rest != 0 {
		return c.corrupt("%d trailing bytes", rest)
	}
	return nil
}

// exhausted reports whether the cursor has read all its frames, and then
// checks that they held the events the index records.
func (c *chunkCursor) exhausted() (bool, error) {
	if c.fi < len(c.ent.frames) {
		return false, nil
	}
	if c.delivered != c.ent.events {
		return true, fmt.Errorf("trace: chunk stream %v: index records %d events, frames hold %d",
			c.ent.loc, c.ent.events, c.delivered)
	}
	return true, nil
}

// readFrame reads the cursor's next frame into buf, grown if it is too
// small, and parses the frame's header.  The cursor holds the buffer, as
// buf, until the frame is delivered.
func (c *chunkCursor) readFrame(buf []byte) error {
	fr := c.ent.frames[c.fi]
	c.fi++
	if int64(cap(buf)) < fr.len {
		buf = make([]byte, fr.len)
	}
	c.buf = buf[:fr.len]
	if err := readAt(c.r.src, c.buf, fr.off); err != nil {
		return fmt.Errorf("trace: chunk stream %v: reading frame at %d: %w", c.ent.loc, fr.off, err)
	}
	return c.parseFrameHeader()
}

// pop decodes the event ready positioned the cursor at into ev (locally
// interned), gives it the frame's location and, for an enter or exit,
// its path's region, and validates it against the location's tables.
func (c *chunkCursor) pop(ev *Event) error {
	n, err := decodeEvent(c.buf[c.off:], ev)
	if err != nil {
		return c.corrupt("event %d: %v", c.evIdx, err)
	}
	c.off += n
	ev.Loc = c.ent.loc
	if ev.Path < 0 || int(ev.Path) >= len(c.pathParent) {
		return c.corrupt("event %d references unknown path %d", c.evIdx, ev.Path)
	}
	// An enter or exit event's region is its path's leaf; only the root
	// path has none.
	if ev.Kind == KindEnter || ev.Kind == KindExit {
		if ev.Region = c.pathRegion[ev.Path]; ev.Region < 0 {
			return c.corrupt("event %d references unknown region %d", c.evIdx, ev.Region)
		}
	}
	c.evIdx++
	c.left--
	c.delivered++
	return nil
}

// parseFrameHeader decodes the frame in buf up to its events: it checks
// the owning location, appends the intern-table deltas, and leaves off
// and left at the first event and the event count.
func (c *chunkCursor) parseFrameHeader() error {
	rank, b, err := cutVarint(c.buf)
	if err != nil {
		return c.corrupt("location: %v", err)
	}
	thread, b, err := cutVarint(b)
	if err != nil {
		return c.corrupt("location: %v", err)
	}
	if rank != int64(c.ent.loc.Rank) || thread != int64(c.ent.loc.Thread) {
		return c.corrupt("frame belongs to %d.%d", rank, thread)
	}
	nr, b, err := cutUvarint(b)
	if err != nil {
		return c.corrupt("region count: %v", err)
	}
	if err := checkCount(nr, minRegionBytes, int64(len(b)), "chunk-frame region"); err != nil {
		return err
	}
	for i := uint64(0); i < nr; i++ {
		var name []byte
		if name, b, err = cutBytes(b); err != nil {
			return c.corrupt("region %d: %v", i, err)
		}
		c.regions = append(c.regions, c.r.name(name))
	}
	np, b, err := cutUvarint(b)
	if err != nil {
		return c.corrupt("path count: %v", err)
	}
	if err := checkCount(np, minPathBytes, int64(len(b)), "chunk-frame path"); err != nil {
		return err
	}
	for i := uint64(0); i < np; i++ {
		var parent, region uint64
		parent, b, err = cutUvarint(b)
		if err == nil {
			region, b, err = cutUvarint(b)
		}
		if err != nil {
			return c.corrupt("path %d: %v", i, err)
		}
		if parent >= uint64(len(c.pathParent)) || region >= uint64(len(c.regions)) {
			return c.corrupt("path table entry %d references parent %d / region %d", i, parent, region)
		}
		c.pathParent = append(c.pathParent, PathID(parent))
		c.pathRegion = append(c.pathRegion, RegionID(region))
	}
	ne, b, err := cutUvarint(b)
	if err != nil {
		return c.corrupt("event count: %v", err)
	}
	if err := checkCount(ne, minEventBytes, int64(len(b)), "chunk-frame event"); err != nil {
		return err
	}
	if ne > c.ent.events-c.delivered {
		return fmt.Errorf("trace: chunk stream %v: index records %d events, frames hold more",
			c.ent.loc, c.ent.events)
	}
	c.off = len(c.buf) - len(b)
	c.left = ne
	c.evIdx = 0
	return nil
}

var _ io.Closer = (*ChunkReader)(nil)
