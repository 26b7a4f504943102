package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// indexOnlySpool assembles a spool with no frames around the raw index
// bytes idx, for corrupting index counts.
func indexOnlySpool(idx []byte) []byte {
	b := append(chunkMagic[:], chunkVersion, chunkTagEnd)
	indexOff := len(b)
	b = append(b, idx...)
	b = binary.LittleEndian.AppendUint64(b, uint64(indexOff))
	return append(b, chunkTrailerMagic[:]...)
}

// indexEntry encodes the index of one stream at rank.thread with no
// frames that claims events events.
func indexEntry(rank, thread int64, events uint64) []byte {
	idx := binary.AppendUvarint(nil, 1)
	idx = binary.AppendVarint(idx, rank)
	idx = binary.AppendVarint(idx, thread)
	idx = binary.AppendUvarint(idx, events)
	return binary.AppendUvarint(idx, 0)
}

// hugeCountSpool is the reproducer from the wild in spool form: a few
// bytes whose index claims 2^60 events.
func hugeCountSpool() []byte { return indexOnlySpool(indexEntry(0, 0, 1<<60)) }

// frameHeader encodes the start of a frame body for location 0.0 up to
// (not including) its region table.
func frameHeader() []byte {
	return binary.AppendVarint(binary.AppendVarint(nil, 0), 0)
}

// Corrupt and truncated inputs must fail fast with a diagnostic, never
// with a speculative multi-gigabyte allocation driven by an untrusted
// count.
func TestReadRejectsCorruptCounts(t *testing.T) {
	cases := []struct {
		name string
		blob []byte
		want string // error substring
	}{
		{"huge event count", hugeCountSpool(), "implausible chunk event count"},
		{"huge region count", handSpool([][]byte{
			binary.AppendUvarint(frameHeader(), 1<<61),
		}, 0), "implausible chunk-frame region count"},
		{"huge path count", handSpool([][]byte{
			binary.AppendUvarint(binary.AppendUvarint(frameHeader(), 0), 1<<59),
		}, 0), "implausible chunk-frame path count"},
		{"huge location count", indexOnlySpool(binary.AppendUvarint(nil, 1<<62)), "implausible chunk stream count"},
		{"location rank out of int32 range", indexOnlySpool(indexEntry(1<<40, 0, 0)),
			"location 1099511627776.0 out of range"},
		{"location thread out of int32 range", indexOnlySpool(indexEntry(0, -(1 << 40), 0)),
			"location 0.-1099511627776 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.blob))
			if err == nil {
				t.Fatalf("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// An event count that passes the plausibility bound but overstates the
// frame's data must still fail on the short frame.
func TestReadTruncatedBody(t *testing.T) {
	const n = 4
	body := binary.AppendUvarint(frameHeader(), 0) // no regions
	body = binary.AppendUvarint(body, 0)           // no paths
	body = binary.AppendUvarint(body, n)
	for i := 0; i < n; i++ {
		// Payloads above the minimum encoding keep the cut frame
		// plausible for its event count.
		body = appendEvent(body, &Event{Time: float64(i), Kind: KindSend, Bytes: 1 << 40})
	}
	blob := handSpool([][]byte{body[:len(body)-3]}, n)
	_, err := Read(bytes.NewReader(blob))
	if err == nil {
		t.Fatal("truncated body accepted")
	}
	if !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("error %q does not report the short frame", err)
	}
}

// ReadFile rejects the huge-count reproducer by its counts, before any
// event is read.
func TestReadFileCorruptFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt-hugecount.atsc")
	if err := os.WriteFile(path, hugeCountSpool(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if err == nil {
		t.Fatal("corrupt file accepted")
	}
	if !strings.Contains(err.Error(), "implausible chunk event count") {
		t.Fatalf("error %q does not mention the implausible count", err)
	}
}

// WriteFile must be atomic: a failed write leaves neither a partial file
// at the target path nor temp-file litter.
func TestWriteFileAtomic(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("x", 0)
	b.Exit(1)
	tr := Merge(b)

	dir := t.TempDir()
	path := filepath.Join(dir, "out.atsc")

	// Failure injection: the rename target is an occupied directory, so
	// the final step fails after a complete write.
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "occupant"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFile(path); err == nil {
		t.Fatal("rename onto non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp litter left behind: %v", ents)
	}

	// Success path still lands the complete file.
	ok := filepath.Join(dir, "ok.atsc")
	if err := tr.WriteFile(ok); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 {
		t.Fatalf("got %d events", len(got.Events))
	}
}

// TestEventSize pins the Event layout: the byte-sized fields share one
// word after the times, so the participant count fills what was padding.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 80 {
		t.Fatalf("Event takes %d bytes, want 80", n)
	}
}

// TestRejectsVersion1Spool: a spool of the previous format version fails
// at open with an error that names its version, however it is read.
func TestRejectsVersion1Spool(t *testing.T) {
	bufs := buildBuffers(2, 3)
	tr := Merge(bufs...)
	for _, b := range bufs {
		b.Release()
	}
	var out bytes.Buffer
	if _, err := tr.Write(&out); err != nil {
		t.Fatal(err)
	}
	blob := out.Bytes()
	blob[chunkHeaderLen-1] = 1
	const want = "trace: unsupported chunk version 1 (want 2)"
	if _, err := Read(bytes.NewReader(blob)); err == nil || err.Error() != want {
		t.Errorf("Read: err %v, want %q", err, want)
	}
	forEachBacking(t, blob, func(t *testing.T, r *ChunkReader, err error) {
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("open: err %v, want %q", err, want)
		}
	})
}

// TestWriteRejectsEnterOffItsPath: the encoding takes an enter or exit
// event's region from its path, so Trace.Write rejects one whose region
// is not its path's leaf, or that sits at the root path, rather than
// write a spool that reads back another region.
func TestWriteRejectsEnterOffItsPath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(tr *Trace)
		want   string
	}{
		{"region of the parent", func(tr *Trace) { tr.Events[1].Region = tr.Events[0].Region },
			"enter event 1: region 0 is not the leaf of its path 2"},
		{"exit at the root", func(tr *Trace) { tr.Events[3].Path = PathRoot },
			"exit event 3: region 0 is not the leaf of its path 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuffer(loc(0, 0))
			b.Enter("outer", 0)
			b.Enter("inner", 1)
			b.Exit(2)
			b.Exit(3)
			tr := Merge(b)
			b.Release()
			if _, err := tr.Write(io.Discard); err != nil {
				t.Fatalf("unmutated trace: %v", err)
			}
			tc.mutate(tr)
			_, err := tr.Write(io.Discard)
			if err == nil || err.Error() != "trace: "+tc.want {
				t.Fatalf("Write: err %v, want %q", err, tc.want)
			}
		})
	}
}

// TestHostileEventCountAllocBound: an index may claim as many events as
// its frame section could hold at minEventBytes each, whatever the frames
// hold.  Such a spool, here one frame of two events behind a long region
// name, fails on its frames, and reading it allocates at most linearly in
// its size.  The claim sizes an event slab of 80 bytes per claimed event,
// 8 bytes per spool byte: ForEach's batches in flight (three batches at
// most) and Read's drain.  The spool's bytes are held at most once more
// as a frame buffer and once as region names, and Read copies them once.
// So NewStream + ForEach stays within 10 bytes per spool byte and Read
// within 11, each plus 64 KiB.
func TestHostileEventCountAllocBound(t *testing.T) {
	body := binary.AppendVarint(nil, 0)
	body = binary.AppendVarint(body, 0)
	body = binary.AppendUvarint(body, 2)
	body = appendString(body, "r")
	body = appendString(body, strings.Repeat("x", 200<<10))
	body = binary.AppendUvarint(body, 1)
	body = binary.AppendUvarint(body, 0) // parent: root
	body = binary.AppendUvarint(body, 0) // region "r"
	body = binary.AppendUvarint(body, 2)
	body = appendEvent(body, &Event{Time: 0, Kind: KindEnter, Path: 1})
	body = appendEvent(body, &Event{Time: 1, Kind: KindExit, Path: 1})
	// The index follows the frames, so the count it claims moves none.
	b0 := handSpool([][]byte{body}, 0)
	indexOff := int64(binary.LittleEndian.Uint64(b0[len(b0)-chunkTrailerLen:]))
	claim := uint64(indexOff-chunkHeaderLen) / minEventBytes
	blob := handSpool([][]byte{body}, claim)
	if err := checkCount(claim+1, minEventBytes, indexOff-chunkHeaderLen, "chunk event"); err == nil {
		t.Fatalf("the index claims %d events, not the most %d spool bytes allow", claim, len(blob))
	}
	size := uint64(len(blob))
	measure := func(name string, bound uint64, read func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "frames hold 2") {
			t.Errorf("%s: err %v, want the frames' count", name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes for a %d-byte spool (%.1f per byte)", name, got, size, float64(got)/float64(size))
		if got > bound {
			t.Errorf("%s of a %d-byte spool claiming %d events allocated %d bytes, bound %d", name, size, claim, got, bound)
		}
	}
	measure("NewStream + ForEach", 10*size+64<<10, func() error {
		r, err := NewChunkReader(bytes.NewReader(blob), int64(size), Limits{})
		if err != nil {
			return err
		}
		st, err := NewStream(r)
		if err != nil {
			return err
		}
		defer st.Close()
		return st.ForEach(func(*Event) {})
	})
	measure("Read", 11*size+64<<10, func() error {
		_, err := Read(bytes.NewReader(blob))
		return err
	})
}
