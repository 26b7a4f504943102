package mpi

import (
	"fmt"

	"repro/internal/distr"
)

// Buf is a simple MPI message buffer (paper §3.1.3, mpi_buf_t): an element
// type, a count, and the backing storage.  Data is stored little-endian;
// use the typed accessors to read and write elements.
//
// Use after FreeBuf panics uniformly: every accessor — including Bytes —
// checks the freed marker, so a use-after-free is caught at the first
// touch instead of silently reading a zero size.
type Buf struct {
	Type  Datatype
	Count int
	Data  []byte

	slab  *[]byte // Data's free-list box (see getBytes)
	freed bool
}

// AllocBuf allocates a zeroed buffer of cnt elements of type t
// (alloc_mpi_buf).  Backing arrays are drawn from a size-classed free list
// replenished by FreeBuf; recycled storage is re-zeroed so the zeroed
// promise holds either way.
func AllocBuf(t Datatype, cnt int) *Buf {
	if cnt < 0 {
		panic(fmt.Sprintf("mpi: AllocBuf with negative count %d", cnt))
	}
	data, slab := getBytes(cnt*t.Size(), true)
	return &Buf{Type: t, Count: cnt, Data: data, slab: slab}
}

// FreeBuf releases the buffer (free_mpi_buf): the backing array returns to
// the allocation free list and any later access through the Buf panics.
// Freeing twice is allowed, matching free_mpi_buf's idempotence on NULL.
// Do not retain a direct alias of Data across FreeBuf — the storage is
// reused by later allocations.
func FreeBuf(b *Buf) {
	if b == nil {
		return
	}
	putBytes(b.Data, b.slab)
	b.Data, b.slab = nil, nil
	b.Count = 0
	b.freed = true
}

// checkLive panics if the buffer was released with FreeBuf.
func (b *Buf) checkLive() {
	if b.freed {
		panic("mpi: use of freed buffer")
	}
}

// Bytes returns the payload size in bytes.
func (b *Buf) Bytes() int {
	b.checkLive()
	return b.Count * b.Type.Size()
}

func (b *Buf) checkIndex(i int) {
	b.checkLive()
	if i < 0 || i >= b.Count {
		panic(fmt.Sprintf("mpi: buffer index %d out of range [0,%d)", i, b.Count))
	}
}

// Float64 returns element i of a TypeDouble buffer.
func (b *Buf) Float64(i int) float64 {
	b.checkIndex(i)
	if b.Type != TypeDouble {
		panic(fmt.Sprintf("mpi: Float64 access on %v buffer", b.Type))
	}
	return getFloat(b.Data, i)
}

// SetFloat64 stores v at element i of a TypeDouble buffer.
func (b *Buf) SetFloat64(i int, v float64) {
	b.checkIndex(i)
	if b.Type != TypeDouble {
		panic(fmt.Sprintf("mpi: SetFloat64 access on %v buffer", b.Type))
	}
	putFloat(b.Data, i, v)
}

// Int64 returns element i of a TypeInt buffer.
func (b *Buf) Int64(i int) int64 {
	b.checkIndex(i)
	if b.Type != TypeInt {
		panic(fmt.Sprintf("mpi: Int64 access on %v buffer", b.Type))
	}
	return getInt(b.Data, i)
}

// SetInt64 stores v at element i of a TypeInt buffer.
func (b *Buf) SetInt64(i int, v int64) {
	b.checkIndex(i)
	if b.Type != TypeInt {
		panic(fmt.Sprintf("mpi: SetInt64 access on %v buffer", b.Type))
	}
	putInt(b.Data, i, v)
}

// Byte returns element i of a TypeByte/TypeChar buffer.
func (b *Buf) Byte(i int) byte {
	b.checkIndex(i)
	return b.Data[i*b.Type.Size()]
}

// SetByte stores v at element i of a TypeByte/TypeChar buffer.
func (b *Buf) SetByte(i int, v byte) {
	b.checkIndex(i)
	b.Data[i*b.Type.Size()] = v
}

// FillSeq fills the buffer with a deterministic per-rank sequence so that
// validation tests can check data movement end-to-end: element i of rank r
// becomes f(r, i) for the canonical filler.
func (b *Buf) FillSeq(rank int) {
	b.checkLive()
	for i := 0; i < b.Count; i++ {
		switch b.Type {
		case TypeDouble:
			putFloat(b.Data, i, float64(rank*1000000+i))
		case TypeInt:
			putInt(b.Data, i, int64(rank*1000000+i))
		default:
			b.Data[i] = byte(rank*31 + i)
		}
	}
}

// Clone returns a deep copy of the buffer.
func (b *Buf) Clone() *Buf {
	b.checkLive()
	c := AllocBuf(b.Type, b.Count)
	copy(c.Data, b.Data)
	return c
}

// Equal reports whether two buffers have identical type, count and data.
func (b *Buf) Equal(o *Buf) bool {
	b.checkLive()
	o.checkLive()
	if b.Type != o.Type || b.Count != o.Count {
		return false
	}
	if len(b.Data) != len(o.Data) {
		return false
	}
	for i := range b.Data {
		if b.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// VBuf is the irregular-collective buffer (paper §3.1.3, mpi_vbuf_t): each
// rank's own portion plus, on the root, the per-rank counts/displacements
// and the aggregate root buffer that irregular collectives
// (Scatterv/Gatherv) operate on.
type VBuf struct {
	// Buf is this rank's portion (Counts[rank] elements).
	Buf *Buf
	// Counts and Displs describe the distribution of elements over the
	// communicator; they are identical on every rank because they are
	// computed from the (pure) distribution function.
	Counts []int
	Displs []int
	// Total is the aggregate element count.
	Total int
	// Root is the root rank this VBuf was allocated for.
	Root int
	// RootBuf is the aggregate buffer, allocated only on the root.
	RootBuf *Buf
}

// AllocVBuf builds an irregular buffer over communicator c: rank i's
// portion holds df(i, size, scale, dd) elements (truncated, floored at 0),
// mirroring alloc_mpi_vbuf.  Only the root allocates the aggregate buffer.
func AllocVBuf(c *Comm, t Datatype, df distr.Func, dd distr.Desc, scale float64, root int) *VBuf {
	sz := c.Size()
	if root < 0 || root >= sz {
		panic(fmt.Sprintf("mpi: AllocVBuf root %d outside communicator of size %d", root, sz))
	}
	v := &VBuf{
		Counts: make([]int, sz),
		Displs: make([]int, sz),
		Root:   root,
	}
	for i := 0; i < sz; i++ {
		n := int(df(i, sz, scale, dd))
		if n < 0 {
			n = 0
		}
		v.Counts[i] = n
		v.Displs[i] = v.Total
		v.Total += n
	}
	v.Buf = AllocBuf(t, v.Counts[c.Rank()])
	if c.Rank() == root {
		v.RootBuf = AllocBuf(t, v.Total)
	}
	return v
}

// FreeVBuf releases the buffer (free_mpi_vbuf).
func FreeVBuf(v *VBuf) {
	if v == nil {
		return
	}
	FreeBuf(v.Buf)
	FreeBuf(v.RootBuf)
	v.Counts, v.Displs = nil, nil
}
