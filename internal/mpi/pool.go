package mpi

import (
	"math/bits"
	"sync"
)

// bytePools recycles the []byte allocation-churn sources of a run — Buf
// backing arrays, in-flight message payloads and collective staging
// copies — in power-of-two size classes: class c serves lengths in
// (2^(c-1), 2^c] from slabs of capacity 2^c.  At fuzzer scale a campaign
// allocates and drops these slices millions of times; recycling them
// keeps the garbage collector out of the hot path.
//
// The pools hold *[]byte boxes, and a slab travels with its box: getBytes
// hands the box out beside the slice and putBytes stores the slice back
// into it, so a steady get/put cycle allocates nothing.
var bytePools [31]sync.Pool

// getBytes returns a slice of length n and its box, to hand back to
// putBytes with the slice.  A recycled slab holds arbitrary stale bytes;
// pass zero to clear it (AllocBuf's zeroed-buffer promise) or false when
// every byte is about to be overwritten (payload copies).
func getBytes(n int, zero bool) ([]byte, *[]byte) {
	if n <= 0 {
		// Non-nil so empty buffers stay sendable (checkBuf treats nil
		// Data as freed).
		return make([]byte, 0), nil
	}
	c := bits.Len(uint(n - 1))
	if c >= len(bytePools) {
		return make([]byte, n), nil
	}
	if box, _ := bytePools[c].Get().(*[]byte); box != nil {
		s := (*box)[:n]
		if zero {
			clear(s)
		}
		return s, box
	}
	return make([]byte, n, 1<<c), nil
}

// putBytes returns a slice's backing array to its size class, in box if
// getBytes supplied one (a nil box costs one allocation).  The class is
// floor(log2(cap)) so every slab in class c has capacity >= 2^c, the most
// getBytes will reslice it to.
func putBytes(s []byte, box *[]byte) {
	c := bits.Len(uint(cap(s))) - 1
	if c < 0 || c >= len(bytePools) {
		return
	}
	if box == nil {
		box = new([]byte)
	}
	*box = s[:0]
	bytePools[c].Put(box)
}
