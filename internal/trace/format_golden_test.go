package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Byte goldens of the trace format for the Fig 3.4/3.5 two-communicator
// program at P=8 (the same run as profile's fig35 golden).  They pin the
// bytes exactly as doc/FORMATS.md specifies them: any codec change that
// moves a single byte fails here.
//
// goldenFig35Write is Trace.Write of the materialized run.  It differs
// from the streamed spool at the default threshold only in frame order:
// Write spools location by location, a run as its executors spill.
const goldenFig35Write = "26a560fdf30fd9b3bb1e3b7889f359a57f6f46e5d4c77c7930b13fd5424ceb7d"

// goldenFig35ATSC maps a spill threshold to the sha256 of the spool; the
// small threshold splits every location into many frames, and the entry
// at 64 pins the encoder at a threshold that does not follow the default.
var goldenFig35ATSC = map[int]string{
	trace.DefaultSpillEvents: "86e7528445bd29d626ed4915b19f4e00716cbc199ceba81936c638b71565dc11",
	64:                       "7856d2c2aaece840f70215e8ff05baadcfa50cbb639278904b38886a9262b01d",
	5:                        "92a46aeae089ff1325c5e2e879c5a36dd6b66176402d2c30e8d0d011bd8539bc",
}

func fig35Body(c *mpi.Comm) { core.TwoCommunicators(c, core.DefaultComposite()) }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// writeBytes encodes tr with Trace.Write.
func writeBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestFormatGoldenFig35(t *testing.T) {
	// No sink: mpi.Run spools into memory and reads the spool back.
	tr, err := mpi.Run(mpi.Options{Procs: 8}, fig35Body)
	if err != nil {
		t.Fatalf("materialized run: %v", err)
	}
	if got := sha(writeBytes(t, tr)); got != goldenFig35Write {
		t.Errorf("Write of the materialized run: sha256 %s, want %s", got, goldenFig35Write)
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

// TestWriteReadRoundTrip: Write(Read(Write(tr))) is Write(tr) byte for
// byte, and Read(Write(tr)) analyses to tr's profile hash, for a pure MPI
// run, a hybrid run whose thread buffers start from seeded call paths,
// and a trace with an event-less location.
func TestWriteReadRoundTrip(t *testing.T) {
	fig35, err := mpi.Run(mpi.Options{Procs: 8}, fig35Body)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := core.Get("hybrid_omp_imbalance_causes_late_sender")
	if !ok {
		t.Fatal("hybrid property not registered")
	}
	hybrid, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
		spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: omp.Options{Threads: 3}}, spec.Defaults())
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := trace.NewBuffer(trace.Location{Rank: 0})
	idle := trace.NewBuffer(trace.Location{Rank: 1})
	busy.Enter("main", 0)
	busy.Enter("work", 1)
	busy.Exit(2)
	busy.Exit(3)
	idleLoc := trace.Merge(busy, idle)

	for name, tr := range map[string]*trace.Trace{"fig35": fig35, "hybrid": hybrid, "idle-location": idleLoc} {
		t.Run(name, func(t *testing.T) {
			blob := writeBytes(t, tr)
			back, err := trace.Read(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !bytes.Equal(writeBytes(t, back), blob) {
				t.Error("Write(Read(Write(tr))) differs from Write(tr)")
			}
			if len(back.Locations) != len(tr.Locations) {
				t.Errorf("read %d locations, wrote %d", len(back.Locations), len(tr.Locations))
			}
			if got, want := profileHash(t, back), profileHash(t, tr); got != want {
				t.Errorf("profile hash after the round trip %s, want %s", got, want)
			}
		})
	}
}

func profileHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	p, err := profile.FromRun("roundtrip", tr, analyzer.Analyze(tr, analyzer.Options{}), profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
