package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
