package analyzer_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/profile"
	"repro/internal/trace"
)

// oneBatch is the most events AnalyzeStream analyzes without a merge
// goroutine; every spool below holds more.
const oneBatch = 4096

// ringWorld is the large-rank scale composite: six rounds of four compute
// segments, a ring Sendrecv and a Barrier.  With a tail, each rank then
// enters a region no earlier event names.
func ringWorld(tail bool) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		work := 0.0001 * (1 + float64(c.Rank())/float64(c.Size()))
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		buf := mpi.AllocBuf(mpi.TypeDouble, 4)
		defer mpi.FreeBuf(buf)
		c.Begin("scale_phase")
		for r := 0; r < 6; r++ {
			for k := 0; k < 4; k++ {
				c.Begin("compute")
				c.Work(work)
				c.End()
			}
			c.Sendrecv(buf, next, 1, buf, prev, 1)
			c.Barrier()
		}
		c.End()
		if tail {
			c.Begin("late_tail")
			c.Work(work)
			c.End()
		}
	}
}

// hybridCritical runs every rank's OpenMP team through a critical section
// (lock events with waits) between MPI barriers.
func hybridCritical(c *mpi.Comm) {
	core.SerializationAtOMPCritical(c.Ctx(), omp.Options{Threads: 3}, 0.0001, 40)
	c.Barrier()
}

// spoolWorld runs body on procs ranks into an in-memory spool.
func spoolWorld(t *testing.T, procs int, body func(c *mpi.Comm)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewChunkWriterTo(&buf, trace.DefaultSpillEvents)
	if _, err := mpi.Run(mpi.Options{Procs: procs, Sink: w}, body); err != nil {
		w.Abort()
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStream(t *testing.T, spool []byte) *trace.Stream {
	t.Helper()
	r, err := trace.NewChunkReader(bytes.NewReader(spool), int64(len(spool)), trace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Events() <= oneBatch {
		t.Fatalf("spool holds %d events, want more than one batch of %d", r.Events(), oneBatch)
	}
	st, err := trace.NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func hashOf(t *testing.T, st *trace.Stream, rep *analyzer.Report) string {
	t.Helper()
	p, err := profile.FromAnalysis("pipeline", profile.TraceInfoOfStream(st), rep, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPipelinedMatchesSequential: AnalyzeStream, which reads a spool of
// more than one batch in spool order on a second goroutine, reports
// exactly what a StreamAnalyzer fed event by event from the merge
// (Stream.Next) on one goroutine reports, down to the profile hash: on
// the ring world, on a hybrid run with lock waits, whose region names
// resolve while the reading goes on, and on a run that interns a region
// only after the first batch.
func TestPipelinedMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		procs  int
		body   func(c *mpi.Comm)
		region string // a region the report must hold
	}{
		{"ring", 128, ringWorld(false), "compute"},
		{"hybrid_critical", 16, hybridCritical, "serialization_at_omp_critical"},
		{"late_region", 128, ringWorld(true), "late_tail"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := spoolWorld(t, tc.procs, tc.body)

			seq := openStream(t, spool)
			a := analyzer.NewStreamAnalyzer(seq, analyzer.Options{})
			for {
				ev, err := seq.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ev == nil {
					break
				}
				a.Add(ev)
			}
			want := a.Finish()

			st := openStream(t, spool)
			got, err := analyzer.AnalyzeStream(st, analyzer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pipelined report differs from the sequential one")
			}
			if g, w := hashOf(t, st, got), hashOf(t, seq, want); g != w {
				t.Errorf("pipelined profile hash %s, sequential %s", g, w)
			}
			if got.Stats.Regions[tc.region] == nil {
				t.Errorf("report has no region %q", tc.region)
			}
			if tc.name == "hybrid_critical" && got.Wait(analyzer.PropOMPCritical) <= 0 {
				t.Errorf("report has no %s wait", analyzer.PropOMPCritical)
			}
		})
	}
}

// TestLockRecordsAreTheLockWaits measures the analyzer's lock term: each
// lock acquisition with a positive wait is kept, as a 32-byte record,
// until Finish sums the waits in (time, location) order, so at fixed
// locations the records grow with the critical sections a run passes
// through.  They must be exactly the positive waits, no more, at 10 and
// at 100 sections per thread.
func TestLockRecordsAreTheLockWaits(t *testing.T) {
	const procs = 4
	kept := func(sections int) (records, waits int) {
		spool := spoolWorld(t, procs, func(c *mpi.Comm) {
			core.SerializationAtOMPCritical(c.Ctx(), omp.Options{Threads: 3}, 0.0001, sections)
		})
		st := streamOf(t, spool)
		a := analyzer.NewStreamAnalyzer(st, analyzer.Options{})
		if err := st.ForEach(func(ev *trace.Event) {
			if ev.Kind == trace.KindLock && ev.Aux > 0 {
				waits++
			}
			a.Add(ev)
		}); err != nil {
			t.Fatal(err)
		}
		records = a.LockWaits()
		if a.Finish().Wait(analyzer.PropOMPCritical) <= 0 {
			t.Fatalf("%d sections: report has no %s wait", sections, analyzer.PropOMPCritical)
		}
		return records, waits
	}
	r10, w10 := kept(10)
	r100, w100 := kept(100)
	t.Logf("lock records kept until Finish: %d (%d B) at 10 sections per thread, %d (%d B) at 100",
		r10, 32*r10, r100, 32*r100)
	if r10 != w10 || r100 != w100 {
		t.Fatalf("kept %d and %d lock records for %d and %d positive lock waits", r10, r100, w10, w100)
	}
	if w10 == 0 || w100 < 5*w10 {
		t.Fatalf("%d and %d positive lock waits at 10 and 100 sections; the case does not grow them", w10, w100)
	}
}
