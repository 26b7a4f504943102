package apps

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// hybridRing is a hybrid MPI+OpenMP body: HybridHeat's OpenMP loops and
// Allreduce, then a ring of point-to-point exchanges.
func hybridRing(c *mpi.Comm) {
	HybridHeat(c, HybridHeatConfig{Rows: 24, Iters: 4, Threads: 3, CellCost: 1e-5, Inject: InjectImbalance})
	buf := mpi.AllocBuf(mpi.TypeDouble, 4)
	defer mpi.FreeBuf(buf)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	for i := 0; i < 4; i++ {
		c.Sendrecv(buf, next, 1, buf, prev, 1)
	}
}

// spoolHybrid runs hybridRing streamed into an in-memory spool that
// spills every 4 events and returns the spool.
func spoolHybrid(t *testing.T, opt mpi.Options) []byte {
	t.Helper()
	var spool bytes.Buffer
	w := trace.NewChunkWriterTo(&spool, 4)
	opt.Sink = w
	if _, err := mpi.Run(opt, hybridRing); err != nil {
		w.Abort()
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return spool.Bytes()
}

// streamedHash is the profile hash of the streamed analysis of spool.
func streamedHash(t *testing.T, spool []byte) string {
	t.Helper()
	cr, err := trace.NewChunkReader(bytes.NewReader(spool), int64(len(spool)), trace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rep, info, err := profile.AnalyzeSpool(cr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return profileHash(t, info, rep)
}

// materializedHash is the profile hash of the materialized analysis of tr.
func materializedHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	return profileHash(t, profile.TraceInfoOf(tr), analyzer.Analyze(tr, analyzer.Options{}))
}

func profileHash(t *testing.T, info profile.TraceInfo, rep *analyzer.Report) string {
	t.Helper()
	p, err := profile.FromAnalysis("hybrid-ring", info, rep, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHybridStreamedConcurrentSpills runs a hybrid world streamed with a
// spill threshold of 4 on goroutines, so ranks and their OpenMP threads
// encode pending events and spill frames at the same time.  Encoding runs
// on each buffer's owning goroutine outside the writer's lock; under
// -race (make race) these runs pin that it touches only the buffer's own
// state.
//
// On the goroutine engine in virtual time the streamed profile hash must
// equal the materialized run's.  A Real-mode run cannot be compared with
// another run (its times are wall-clock), so its spool must give the same
// hash streamed and read back into a materialized trace.
func TestHybridStreamedConcurrentSpills(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		opt := mpi.Options{Procs: 6, Engine: mpi.EngineGoroutine, Timeout: 60 * time.Second}
		tr, err := mpi.Run(opt, hybridRing)
		if err != nil {
			t.Fatal(err)
		}
		want := materializedHash(t, tr)
		if got := streamedHash(t, spoolHybrid(t, opt)); got != want {
			t.Fatalf("streamed profile hash %s, materialized %s", got, want)
		}
	})
	t.Run("real", func(t *testing.T) {
		spool := spoolHybrid(t, mpi.Options{Procs: 6, Mode: vtime.Real, Timeout: 60 * time.Second})
		tr, err := trace.Read(bytes.NewReader(spool))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := streamedHash(t, spool), materializedHash(t, tr); got != want {
			t.Fatalf("streamed profile hash %s, materialized read-back %s", got, want)
		}
	})
}
