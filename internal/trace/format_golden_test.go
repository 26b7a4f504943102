package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Byte goldens of the two encodings for the Fig 3.4/3.5 two-communicator
// program at P=8 (the same run as profile's fig35 golden).  They pin the
// ATS1 and ATSC bytes exactly as doc/FORMATS.md specifies them: any
// codec change that moves a single byte fails here.
const goldenFig35ATS1 = "9729130f5fe8c21812bcd8ad540bde58232d2c476da8747ac7845c286aeeb1c6"

// goldenFig35ATSC maps a spill threshold to the sha256 of the spool; the
// small threshold splits every location into many frames.
var goldenFig35ATSC = map[int]string{
	trace.DefaultSpillEvents: "8dcfc42f04f66b15a79c18f90e6a36b769afa8b03ad77d41b3ca2c691fae9db3",
	5:                        "60d9a7fd89e87baaf4e5ad2a338104ff39f3220880ea78ca880e2d796ed524b7",
}

func fig35Body(c *mpi.Comm) { core.TwoCommunicators(c, core.DefaultComposite()) }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// ats1Bytes encodes tr in the ATS1 format.
func ats1Bytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestFormatGoldenFig35(t *testing.T) {
	// Materialized sink: mpi.Run merges the buffers into a Trace.
	tr, err := mpi.Run(mpi.Options{Procs: 8}, fig35Body)
	if err != nil {
		t.Fatalf("materialized run: %v", err)
	}
	ats1 := ats1Bytes(t, tr)
	if got := sha(ats1); got != goldenFig35ATS1 {
		t.Errorf("ATS1 of the materialized run: sha256 %s, want %s", got, goldenFig35ATS1)
	}
	back, err := trace.Read(bytes.NewReader(ats1))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := sha(ats1Bytes(t, back)); got != goldenFig35ATS1 {
		t.Errorf("ATS1 re-encoded after Read: sha256 %s, want %s", got, goldenFig35ATS1)
	}

	// Streamed sink: the same run spooled through a ChunkWriter.
	for spill, want := range goldenFig35ATSC {
		spool := filepath.Join(t.TempDir(), "fig35.atsc")
		w, err := trace.NewChunkWriter(spool, spill)
		if err != nil {
			t.Fatalf("NewChunkWriter: %v", err)
		}
		if _, err := mpi.Run(mpi.Options{Procs: 8, Sink: w}, fig35Body); err != nil {
			w.Abort()
			t.Fatalf("streamed run: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		atsc, err := os.ReadFile(spool)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(atsc); got != want {
			t.Errorf("ATSC spool of the streamed run (spill %d): sha256 %s, want %s", spill, got, want)
		}

		// The same run spooled in memory writes the same bytes.
		var mem bytes.Buffer
		mw := trace.NewChunkWriterTo(&mem, spill)
		if _, err := mpi.Run(mpi.Options{Procs: 8, Sink: mw}, fig35Body); err != nil {
			mw.Abort()
			t.Fatalf("streamed run into memory: %v", err)
		}
		if err := mw.Close(); err != nil {
			t.Fatalf("Close (memory): %v", err)
		}
		if got := sha(mem.Bytes()); got != want {
			t.Errorf("in-memory ATSC spool of the streamed run (spill %d): sha256 %s, want %s", spill, got, want)
		}
	}
}
