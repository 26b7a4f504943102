package ats_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/trace"
	"repro/internal/xctx"
)

// TestFailedRunSpool drives the failure path of a traced run with and
// without a ChunkWriter: a rank panic, an OpenMP team panic inside a
// hybrid rank, and a team panic under omp.Run.  Every run must return the
// panic's error.  The streamed run must still finish every stream (Close
// reports no unfinished one), and its spool must read back with the
// location set of the merged run's trace.
func TestFailedRunSpool(t *testing.T) {
	// teamFails forks a team whose thread 1 panics inside an open region.
	teamFails := func(ctx *xctx.Ctx, fail bool) {
		omp.Parallel(ctx, omp.Options{Threads: 3}, func(tc *omp.TC) {
			tc.Begin("inner")
			tc.Work(0.01 * float64(tc.ThreadNum()+1))
			if fail && tc.ThreadNum() == 1 {
				panic("boom")
			}
			tc.End()
		})
	}
	cases := []struct {
		name string
		run  func(w *trace.ChunkWriter) (*trace.Trace, error)
	}{
		{"rank panic", func(w *trace.ChunkWriter) (*trace.Trace, error) {
			return mpi.Run(mpi.Options{Procs: 4, Sink: w}, func(c *mpi.Comm) {
				c.Work(0.01)
				if c.Rank() == 2 {
					panic("boom")
				}
				c.Barrier()
			})
		}},
		{"hybrid team panic", func(w *trace.ChunkWriter) (*trace.Trace, error) {
			return mpi.Run(mpi.Options{Procs: 3, Sink: w}, func(c *mpi.Comm) {
				teamFails(c.Ctx(), c.Rank() == 1)
				c.Barrier()
			})
		}},
		{"omp team panic", func(w *trace.ChunkWriter) (*trace.Trace, error) {
			return omp.Run(omp.RunOptions{Threads: 3, Sink: w}, func(ctx *xctx.Ctx, _ omp.Options) {
				teamFails(ctx, false)
				teamFails(ctx, true)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.run(nil)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("merged run error = %v, want the panic", err)
			}
			if tr == nil {
				t.Fatal("merged run returned no trace")
			}

			var spool bytes.Buffer
			w := trace.NewChunkWriterTo(&spool, trace.DefaultSpillEvents)
			st, err := tc.run(w)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("streamed run error = %v, want the panic", err)
			}
			if st != nil {
				t.Error("streamed run returned a trace")
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r, err := trace.NewChunkReader(bytes.NewReader(spool.Bytes()), int64(spool.Len()), trace.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Locations(); !reflect.DeepEqual(got, tr.Locations) {
				t.Errorf("spool locations %v, merged trace %v", got, tr.Locations)
			}
		})
	}
}
