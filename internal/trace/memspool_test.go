package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// TestMemSpoolReadsBackWrites: an in-memory spool reads back exactly the
// bytes written to it, across block boundaries, with io.EOF past its end,
// and a recycled spool holds only what was written since.
func TestMemSpoolReadsBackWrites(t *testing.T) {
	var want bytes.Buffer
	spool := getSpool()
	for i := 0; want.Len() < 3*spoolBlock+100; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i*37%5000)
		want.Write(p)
		if n, err := spool.Write(p); n != len(p) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	check := func(want []byte) {
		t.Helper()
		for _, r := range [][2]int{{0, 10}, {spoolBlock - 3, 7}, {spoolBlock - 1, 2*spoolBlock + 2}, {len(want) - 5, 5}} {
			if r[0]+r[1] > len(want) {
				continue
			}
			got := make([]byte, r[1])
			if n, err := spool.ReadAt(got, int64(r[0])); n != r[1] || err != nil {
				t.Fatalf("ReadAt(%d bytes at %d) = %d, %v", r[1], r[0], n, err)
			}
			if !bytes.Equal(got, want[r[0]:r[0]+r[1]]) {
				t.Fatalf("ReadAt(%d bytes at %d) returned other bytes", r[1], r[0])
			}
		}
		tail := make([]byte, 10)
		if n, err := spool.ReadAt(tail, int64(len(want)-4)); n != 4 || err != io.EOF {
			t.Fatalf("ReadAt past the end = %d, %v; want 4, io.EOF", n, err)
		}
	}
	check(want.Bytes())

	spool.size = 0 // as getSpool recycles a pooled spool
	short := []byte("ATSC spool, second use")
	spool.Write(short)
	check(short)
}

// spoolBytes returns what m holds.
func spoolBytes(t *testing.T, m *MemSpool) []byte {
	t.Helper()
	b := make([]byte, m.Size())
	if _, err := m.ReadAt(b, 0); err != nil && len(b) > 0 {
		t.Fatal(err)
	}
	return b
}

// compareBytes writes got through a comparer against a spool holding
// want, in pieces of assorted sizes that straddle the block boundaries,
// and returns the comparison's result.
func compareBytes(want, got []byte) *MemSpool {
	ref := getSpool()
	defer ref.Release()
	ref.Write(want)
	c := &spoolComparer{ref: ref}
	sizes := []int{1, 7, 4093, spoolBlock, 100, spoolBlock + 5}
	for i := 0; len(got) > 0; i++ {
		k := min(sizes[i%len(sizes)], len(got))
		c.Write(got[:k])
		got = got[k:]
	}
	return c.result()
}

// TestCompareBytes: a rerun that writes the reference bytes keeps no
// spool; one that differs at its first byte, at a block boundary or at
// its last byte, ends short or runs longer yields a spool holding
// exactly what it wrote.
func TestCompareBytes(t *testing.T) {
	held := spoolsHeld.Load()
	want := make([]byte, 3*spoolBlock+123)
	rand.New(rand.NewSource(1)).Read(want)
	if diff := compareBytes(want, bytes.Clone(want)); diff != nil {
		t.Fatalf("an equal rerun returned a %d-byte spool", diff.Size())
	}
	flipped := func(off int) []byte {
		b := bytes.Clone(want)
		b[off] ^= 0x40
		return b
	}
	for _, tc := range []struct {
		name string
		got  []byte
	}{
		{"byte 0", flipped(0)},
		{"last byte of a block", flipped(spoolBlock - 1)},
		{"first byte of a block", flipped(spoolBlock)},
		{"last byte", flipped(len(want) - 1)},
		{"strict prefix", want[:len(want)-1]},
		{"prefix ending at a block", want[:2*spoolBlock]},
		{"empty", nil},
		{"longer", append(bytes.Clone(want), 0)},
	} {
		diff := compareBytes(want, tc.got)
		if diff == nil {
			t.Errorf("%s: no mismatch reported", tc.name)
			continue
		}
		if got := spoolBytes(t, diff); !bytes.Equal(got, tc.got) {
			t.Errorf("%s: the rerun's spool holds %d other bytes, want the %d it wrote", tc.name, len(got), len(tc.got))
		}
		diff.Release()
	}
	if n := spoolsHeld.Load() - held; n != 0 {
		t.Errorf("%d spools not returned to the pool", n)
	}
}

// recordRun returns a run that records nLocs deterministic locations into
// the writer, with location skew's events shifted by one event.
func recordRun(nLocs, events int, skew int32) func(*ChunkWriter) error {
	return func(w *ChunkWriter) error {
		for i := int32(0); i < int32(nLocs); i++ {
			b := NewBuffer(Location{Rank: i})
			w.Attach(b)
			n := events
			if i == skew {
				n++
			}
			fillBuffer(b, i, n)
			err := w.Finish(b)
			b.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// TestCompareRerun drives Compare with real runs: an identical rerun
// returns no spool, and a rerun that differs returns the bytes a direct
// spool of the same run holds, which read back to the same trace.
func TestCompareRerun(t *testing.T) {
	held := spoolsHeld.Load()
	const nLocs, events = 6, 60
	ref, err := SpoolInMemory(recordRun(nLocs, events, -1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Size() <= spoolBlock {
		t.Fatalf("reference spool of %d bytes spans one block", ref.Size())
	}
	diff, err := ref.Compare(recordRun(nLocs, events, -1))
	if err != nil || diff != nil {
		t.Fatalf("identical rerun: Compare = %v, %v; want nil, nil", diff, err)
	}
	for _, skew := range []int32{0, nLocs - 1} {
		diff, err := ref.Compare(recordRun(nLocs, events, skew))
		if err != nil || diff == nil {
			t.Fatalf("skewed rank %d: Compare = %v, %v; want a spool", skew, diff, err)
		}
		direct, err := SpoolInMemory(recordRun(nLocs, events, skew))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spoolBytes(t, diff), spoolBytes(t, direct)) {
			t.Errorf("skewed rank %d: the rerun's spool differs from a direct spool of the run", skew)
		}
		got, err := diff.read()
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.read()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, want.Events) || !reflect.DeepEqual(got.Regions, want.Regions) {
			t.Errorf("skewed rank %d: the rerun's spool reads back another trace", skew)
		}
		diff.Release()
		direct.Release()
	}
	ref.Release()
	if n := spoolsHeld.Load() - held; n != 0 {
		t.Errorf("%d spools not returned to the pool", n)
	}
}

// TestCompareFailedRerunReleases: a rerun that fails, before or after it
// diverged, or that aborts its writer, returns its error and gives back
// every spool it took.
func TestCompareFailedRerunReleases(t *testing.T) {
	ref, err := SpoolInMemory(recordRun(4, 40, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	boom := errors.New("boom")
	var held, took int64 // spools held before Compare, and taken by the rerun
	diverge := func(w *ChunkWriter) {
		recordRun(4, 40, 1)(w)
		took = spoolsHeld.Load() - held
	}
	for _, tc := range []struct {
		name string
		took int64
		run  func(*ChunkWriter) error
	}{
		{"fails before diverging", 0, func(w *ChunkWriter) error {
			return boom
		}},
		{"fails after diverging", 1, func(w *ChunkWriter) error {
			diverge(w)
			return boom
		}},
		{"aborts after diverging", 1, func(w *ChunkWriter) error {
			diverge(w)
			w.Abort()
			return nil
		}},
	} {
		held, took = spoolsHeld.Load(), 0
		diff, err := ref.Compare(tc.run)
		if err == nil || diff != nil {
			t.Errorf("%s: Compare = %v, %v; want an error and no spool", tc.name, diff, err)
		}
		if took != tc.took {
			t.Errorf("%s: the rerun took %d spools, want %d", tc.name, took, tc.took)
		}
		if n := spoolsHeld.Load() - held; n != 0 {
			t.Errorf("%s: %d spools not returned to the pool", tc.name, n)
		}
	}
}
