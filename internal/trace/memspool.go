package trace

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
)

// MemSpool is an ATSC spool held in memory: the one in-memory spool of
// the package.  SpoolInMemory records a run into one, Reader reads it
// back as OpenChunkFile reads a spool file (every frame and the index
// are encoded, validated and decoded, without the file), Compare checks
// a rerun of the same run against it byte for byte, and Release gives it
// back.  Recorder, Merge and Read draw from the same pool.
//
// The bytes are held in fixed-size blocks.  Writing never copies what a
// spool already holds, so a large run's spool takes its bytes plus at
// most one block, where a doubling buffer would take up to twice its
// bytes and leave every smaller copy behind as garbage.
type MemSpool struct {
	blocks [][]byte // spoolBlock bytes each; blocks past size are spare
	size   int64
}

// spoolBlock is the size of a MemSpool block.  A conformance case spools
// a few blocks; a 1024-rank world about 800.
const spoolBlock = 16 << 10

// spoolPool recycles in-memory spools with their blocks.  A sweep
// records, merges or reads run after run of about the same size, and each
// spool would otherwise be allocated afresh.  A spool goes back once what
// it held has been decoded out of it.
var spoolPool = sync.Pool{New: func() any { return new(MemSpool) }}

// spoolsHeld counts the spools taken from the pool and not yet released,
// so a test can tell that a path gave back every spool it took.
var spoolsHeld atomic.Int64

func getSpool() *MemSpool {
	m := spoolPool.Get().(*MemSpool)
	m.size = 0
	spoolsHeld.Add(1)
	return m
}

// Release returns the spool to the pool.  Neither the spool nor a
// ChunkReader over it may be used afterwards.
func (m *MemSpool) Release() {
	spoolsHeld.Add(-1)
	spoolPool.Put(m)
}

// SpoolInMemory runs run with a ChunkWriter spooling into a pooled
// in-memory spool, closes the writer and returns the spool, which the
// caller releases.  It is WriteSpool for a run small enough to hold.
// When run fails the writer is aborted, the spool released and run's
// error returned.
func SpoolInMemory(run func(*ChunkWriter) error) (*MemSpool, error) {
	m := getSpool()
	if err := runSpool(NewChunkWriterTo(m, DefaultSpillEvents), run); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// Size returns the number of bytes the spool holds.
func (m *MemSpool) Size() int64 { return m.size }

// Reader opens a reader over the spool.  The reader must not outlive the
// spool's Release.
func (m *MemSpool) Reader() (*ChunkReader, error) {
	return NewChunkReader(m, m.size, Limits{})
}

// read merges the spool into a Trace, which shares no bytes with it.
func (m *MemSpool) read() (*Trace, error) {
	cr, err := m.Reader()
	if err != nil {
		return nil, err
	}
	return readChunks(cr)
}

// Compare runs run, a rerun of what m holds, with a ChunkWriter that
// checks each write against m at the same offset.  While the two agree
// the rerun keeps no bytes of its own.  Compare returns nil when the
// rerun wrote exactly m's bytes.  Otherwise it returns a pooled spool
// holding exactly the bytes the rerun wrote, which the caller releases:
// at the first write that differs from m, or runs past its end, the
// agreed prefix is copied into that spool and the rerun records on from
// there; a rerun that ends short of m copies its bytes once it closes.
// When run fails the writer is aborted, any spool the rerun took is
// released and run's error returned.
func (m *MemSpool) Compare(run func(*ChunkWriter) error) (*MemSpool, error) {
	c := &spoolComparer{ref: m}
	if err := runSpool(NewChunkWriterTo(c, DefaultSpillEvents), run); err != nil {
		if c.diff != nil {
			c.diff.Release()
		}
		return nil, err
	}
	return c.result(), nil
}

// spoolComparer is the writer behind Compare.
type spoolComparer struct {
	ref  *MemSpool
	off  int64     // bytes written, while they agree with ref
	diff *MemSpool // the rerun's own bytes once they differ, else nil
}

func (c *spoolComparer) Write(p []byte) (int, error) {
	if c.diff == nil {
		if c.ref.holdsAt(p, c.off) {
			c.off += int64(len(p))
			return len(p), nil
		}
		c.diverge()
	}
	return c.diff.Write(p)
}

// result ends the comparison: it returns nil when the rerun wrote exactly
// ref's bytes, else the rerun's own spool.
func (c *spoolComparer) result() *MemSpool {
	if c.diff == nil && c.off < c.ref.size {
		c.diverge() // the rerun ended short of ref
	}
	return c.diff
}

// diverge starts the rerun's own spool with the prefix it wrote while it
// agreed with ref.
func (c *spoolComparer) diverge() {
	c.diff = getSpool()
	for off := int64(0); off < c.off; off += spoolBlock {
		c.diff.Write(c.ref.blocks[off/spoolBlock][:min(spoolBlock, c.off-off)])
	}
}

// holdsAt reports whether m holds p at offset off.
func (m *MemSpool) holdsAt(p []byte, off int64) bool {
	if off+int64(len(p)) > m.size {
		return false
	}
	for len(p) > 0 {
		b := m.blocks[off/spoolBlock][off%spoolBlock:]
		k := min(len(b), len(p))
		if !bytes.Equal(p[:k], b[:k]) {
			return false
		}
		p = p[k:]
		off += int64(k)
	}
	return true
}

// Write appends p to the spool; it never fails.
func (m *MemSpool) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		b, off := int(m.size/spoolBlock), int(m.size%spoolBlock)
		if b == len(m.blocks) {
			m.blocks = append(m.blocks, make([]byte, spoolBlock))
		}
		k := copy(m.blocks[b][off:], p)
		p = p[k:]
		m.size += int64(k)
	}
	return n, nil
}

// ReadAt reads the spool's bytes at off, with io.EOF past its end.
func (m *MemSpool) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) && off < m.size {
		b := m.blocks[off/spoolBlock][off%spoolBlock:]
		k := copy(p[n:], b[:min(int64(len(b)), m.size-off)])
		n += k
		off += int64(k)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
