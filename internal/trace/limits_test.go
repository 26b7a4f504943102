package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// limitsTrace builds a small two-rank materialized trace for limit tests.
func limitsTrace(t *testing.T) *Trace {
	t.Helper()
	b0 := NewBuffer(Location{Rank: 0})
	b1 := NewBuffer(Location{Rank: 1})
	for i, b := range []*Buffer{b0, b1} {
		b.Enter("main", 0.0)
		b.Enter("phase", 0.1)
		b.Exit(0.2 + float64(i)*0.1)
		b.Exit(0.5)
	}
	return Merge(b0, b1)
}

// readLimited is Read under lim: the policy caps of an untrusted ingest.
func readLimited(blob []byte, lim Limits) (*Trace, error) {
	cr, err := NewChunkReader(bytes.NewReader(blob), int64(len(blob)), lim)
	if err != nil {
		return nil, err
	}
	return readChunks(cr)
}

// TestReadLimited drives the bytes Trace.Write emits through the
// policy-cap table: inputs that are structurally valid but exceed a
// configured cap must be rejected, and generous caps must not reject
// valid input.
func TestReadLimited(t *testing.T) {
	tr := limitsTrace(t)
	var buf bytes.Buffer
	if _, err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	events := len(tr.Events)
	locs := len(tr.Locations)

	tests := []struct {
		name    string
		lim     Limits
		wantErr string // substring; empty = must succeed
	}{
		{"unlimited", Limits{}, ""},
		{"generous", Limits{MaxEvents: int64(events), MaxLocations: locs, MaxFrame: 1 << 20}, ""},
		{"events over cap", Limits{MaxEvents: int64(events) - 1}, "events, limit"},
		{"locations over cap", Limits{MaxLocations: locs - 1}, "locations, limit"},
		{"frame over cap", Limits{MaxFrame: 8}, "frame"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readLimited(blob, tc.lim)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("readLimited: %v", err)
				}
				if len(got.Events) != events {
					t.Fatalf("read %d events, want %d", len(got.Events), events)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("readLimited err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadLimitedMalformed confirms that limits compose with the
// structural hardening checks (bad magic, lying counts).
func TestReadLimitedMalformed(t *testing.T) {
	tests := []struct {
		name string
		blob []byte
	}{
		{"bad magic", []byte("NOPE")},
		{"truncated header", []byte("ATSC")},
		// A frame whose region count claims 2^60 entries.
		{"huge region count", handSpool([][]byte{binary.AppendUvarint(frameHeader(), 1<<60)}, 0)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readLimited(tc.blob, Limits{MaxEvents: 10}); err == nil {
				t.Fatal("malformed input accepted")
			}
		})
	}
}

// spoolFromRun writes a two-location chunk spool and returns its path plus
// the per-location event count.
func spoolFromRun(t *testing.T) (path string, events int, locations int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "limits.atsc")
	w, err := NewChunkWriter(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	bufs := []*Buffer{NewBuffer(Location{Rank: 0}), NewBuffer(Location{Rank: 1})}
	for _, b := range bufs {
		w.Attach(b)
	}
	for i, b := range bufs {
		b.Enter("main", 0.0)
		b.Enter("phase", 0.1)
		b.Exit(0.2 + float64(i)*0.1)
		b.Exit(0.5)
		if err := w.Finish(b); err != nil {
			t.Fatal(err)
		}
		events += 4
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, events, len(bufs)
}

// TestOpenChunkFileLimited drives the ATSC reader through the policy-cap
// table.
func TestOpenChunkFileLimited(t *testing.T) {
	path, events, locs := spoolFromRun(t)

	tests := []struct {
		name    string
		lim     Limits
		wantErr string
	}{
		{"unlimited", Limits{}, ""},
		{"generous", Limits{MaxEvents: int64(events), MaxLocations: locs, MaxFrame: 1 << 20}, ""},
		{"events over cap", Limits{MaxEvents: int64(events) - 1}, "events, limit"},
		{"locations over cap", Limits{MaxLocations: locs - 1}, "locations, limit"},
		{"frame over cap", Limits{MaxFrame: 8}, "frame"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenChunkFileLimited(path, tc.lim)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("OpenChunkFileLimited: %v", err)
				}
				if got := r.Events(); got != events {
					t.Fatalf("index records %d events, want %d", got, events)
				}
				r.Close()
				return
			}
			if err == nil {
				r.Close()
				t.Fatal("over-limit spool accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestOpenChunkFileLimitedMalformed confirms limits compose with the
// structural spool validation (corrupt trailer).
func TestOpenChunkFileLimitedMalformed(t *testing.T) {
	path, _, _ := spoolFromRun(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob[len(blob)-4:], []byte("XXXX")) // clobber trailer magic
	bad := filepath.Join(t.TempDir(), "bad.atsc")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := OpenChunkFileLimited(bad, Limits{MaxEvents: 100}); err == nil {
		r.Close()
		t.Fatal("corrupt spool accepted")
	}
}
