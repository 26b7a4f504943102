package analyzer_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/conformance"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// rootedCollectives runs Bcast, Reduce and Scan rounds with imbalanced
// work before each, so the rooted and prefix reductions all see waits.
func rootedCollectives(c *mpi.Comm) {
	one := mpi.AllocBuf(mpi.TypeDouble, 1)
	all := mpi.AllocBuf(mpi.TypeDouble, 1)
	defer mpi.FreeBuf(one)
	defer mpi.FreeBuf(all)
	for r := 0; r < 4; r++ {
		root := r % c.Size()
		c.Work(0.0001 * float64((c.Rank()*7+r)%5))
		c.Bcast(one, root)
		c.Work(0.0001 * float64((c.Rank()*3+r)%4))
		c.Reduce(one, all, mpi.OpSum, root)
		c.Work(0.0001 * float64((c.Rank()*5+r)%6))
		c.Scan(one, all, mpi.OpSum)
	}
}

// streamOf opens spool as a stream of any size.
func streamOf(t *testing.T, spool []byte) *trace.Stream {
	t.Helper()
	r, err := trace.NewChunkReader(bytes.NewReader(spool), int64(len(spool)), trace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// orderReports analyzes spool fed in four orders: merged (Stream.Next),
// spool (AnalyzeStream, which reads through Stream.ForEach), a seeded
// random interleaving of the locations that keeps each location's order,
// and reverse location-major (the last location's events first).  It
// fails unless the four reports are deeply equal, and reports whether
// spool order differed from merged order.
func orderReports(t *testing.T, spool []byte, seed int64) (*analyzer.Report, bool) {
	t.Helper()
	merged := streamOf(t, spool)
	var events []trace.Event
	a := analyzer.NewStreamAnalyzer(merged, analyzer.Options{})
	for {
		ev, err := merged.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			break
		}
		events = append(events, *ev)
		a.Add(ev)
	}
	want := a.Finish()

	st := streamOf(t, spool)
	spoolRep := analyzer.NewStreamAnalyzer(st, analyzer.Options{})
	differs, i := false, 0
	if err := st.ForEach(func(ev *trace.Event) {
		differs = differs || ev.Loc != events[i].Loc || ev.Time != events[i].Time
		i++
		spoolRep.Add(ev)
	}); err != nil {
		t.Fatal(err)
	}

	// The two reorderings draw on the merged events, whose ids the drained
	// merged stream resolves.
	byLoc := map[trace.Location][]trace.Event{}
	for _, ev := range events {
		byLoc[ev.Loc] = append(byLoc[ev.Loc], ev)
	}
	locs := merged.Locations()
	feed := func(order []trace.Event) *analyzer.Report {
		a := analyzer.NewStreamAnalyzer(merged, analyzer.Options{})
		for i := range order {
			a.Add(&order[i])
		}
		return a.Finish()
	}
	rng := rand.New(rand.NewSource(seed))
	queues := make([][]trace.Event, 0, len(locs))
	for _, loc := range locs {
		if len(byLoc[loc]) > 0 {
			queues = append(queues, byLoc[loc])
		}
	}
	random := make([]trace.Event, 0, len(events))
	for len(queues) > 0 {
		q := rng.Intn(len(queues))
		random = append(random, queues[q][0])
		if queues[q] = queues[q][1:]; len(queues[q]) == 0 {
			queues = slices.Delete(queues, q, q+1)
		}
	}
	reverse := make([]trace.Event, 0, len(events))
	for i := len(locs) - 1; i >= 0; i-- {
		reverse = append(reverse, byLoc[locs[i]]...)
	}

	for _, got := range []struct {
		order string
		rep   *analyzer.Report
	}{
		{"spool", spoolRep.Finish()},
		{"random interleaving", feed(random)},
		{"reverse location-major", feed(reverse)},
	} {
		if !reflect.DeepEqual(got.rep, want) {
			for _, prop := range want.Properties() {
				t.Logf("%s: merged wait %v, %s %v", prop, want.Wait(prop), got.order, got.rep.Wait(prop))
			}
			t.Fatalf("report fed in %s order differs from the merged-order report", got.order)
		}
	}
	return want, differs
}

// TestReportIndependentOfOrder: the analyzer's report does not depend on
// how the locations' events interleave, only on each location's order:
// merged, spool, random and reverse location-major orders report the
// same, down to the last bit, on the 1024-rank ring, a hybrid run with
// lock waits, rooted and prefix collectives, and 200 conformance cases.
func TestReportIndependentOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		body  func(c *mpi.Comm)
		props []string // properties the report must hold
	}{
		{"ring_1024", 1024, ringWorld(false), []string{analyzer.PropLateSender, analyzer.PropWaitAtBarrier}},
		{"hybrid_critical", 16, hybridCritical, []string{analyzer.PropOMPCritical}},
		{"rooted_collectives", 12, rootedCollectives, []string{analyzer.PropLateBroadcast, analyzer.PropEarlyReduce, analyzer.PropWaitAtNxN}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, differs := orderReports(t, spoolWorld(t, tc.procs, tc.body), 1)
			if !differs {
				t.Error("spool order equals merged order; the case cannot tell them apart")
			}
			for _, prop := range tc.props {
				if rep.Wait(prop) <= 0 {
					t.Errorf("report has no %s wait", prop)
				}
			}
		})
	}
	t.Run("conformance_seeds", func(t *testing.T) {
		differ := 0
		for seed := uint64(1); seed <= 200; seed++ {
			cs := conformance.Generate(seed, conformance.Config{})
			if _, d := orderReports(t, spoolWorld(t, cs.Procs, caseWorld(cs)), int64(seed)); d {
				differ++
			}
		}
		t.Logf("spool order differs from merged order in %d of 200 cases", differ)
		if differ == 0 {
			t.Fatal("spool order equals merged order in every case")
		}
	})
}
