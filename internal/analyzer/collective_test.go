package analyzer_test

import (
	"testing"

	"repro/internal/analyzer"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestCollectivePartsPresized: every collective instance an engine run
// records, MPI collectives and OpenMP team pseudo-collectives alike, is
// made once with room for exactly its participants, from the count its
// first event carries.  A count above the view's location count, which
// no run records, makes room for no more than the locations; an
// instance whose events carry no count grows by append.  The rank counts
// are not powers of two, so room that append doubled would show.
func TestCollectivePartsPresized(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		body  func(c *mpi.Comm)
	}{
		{"ring", 48, ringWorld(false)},
		{"rooted", 12, rootedCollectives},
		{"hybrid", 4, hybridCritical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := streamOf(t, spoolWorld(t, tc.procs, tc.body))
			a := analyzer.NewStreamAnalyzer(st, analyzer.Options{})
			omp := 0
			if err := st.ForEach(func(ev *trace.Event) {
				if ev.Kind == trace.KindColl && ev.Coll >= trace.CollOMPBarrier {
					omp++
				}
				a.Add(ev)
			}); err != nil {
				t.Fatal(err)
			}
			parts, room, instances := a.CollectiveParts()
			if instances == 0 || parts != room {
				t.Fatalf("%d instances keep %d parts in room for %d", instances, parts, room)
			}
			if tc.name == "hybrid" && omp == 0 {
				t.Fatal("the hybrid run recorded no team pseudo-collective")
			}
		})
	}

	// Two locations, one instance each of a hostile and an unknown count.
	b0, b1 := trace.NewBuffer(trace.Location{Rank: 0}), trace.NewBuffer(trace.Location{Rank: 1})
	for i, b := range []*trace.Buffer{b0, b1} {
		b.Record(trace.Event{Time: 1, Kind: trace.KindColl, Coll: trace.CollBarrier, Root: -1, CRank: int32(i), Match: 1, Parts: 1 << 30})
		b.Record(trace.Event{Time: 2, Kind: trace.KindColl, Coll: trace.CollBarrier, Root: -1, CRank: int32(i), Match: 2})
	}
	tr := trace.Merge(b0, b1)
	b0.Release()
	b1.Release()
	a := analyzer.NewStreamAnalyzer(tr, analyzer.Options{})
	for i := range tr.Events {
		if tr.Events[i].Match == 1 {
			a.Add(&tr.Events[i])
		}
	}
	if parts, room, _ := a.CollectiveParts(); parts != 2 || room != 2 {
		t.Fatalf("a count of 2^30 over 2 locations: %d parts in room for %d, want 2 in 2", parts, room)
	}
	for i := range tr.Events {
		if tr.Events[i].Match == 2 {
			a.Add(&tr.Events[i])
		}
	}
	if parts, room, instances := a.CollectiveParts(); parts != 4 || room < parts || instances != 2 {
		t.Fatalf("with an uncounted instance: %d instances keep %d parts in room for %d", instances, parts, room)
	}
}
