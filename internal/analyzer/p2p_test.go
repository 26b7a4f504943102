package analyzer_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/trace"
)

// ringRounds is ringWorld with the number of rounds as a parameter.
func ringRounds(rounds int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		work := 0.0001 * (1 + float64(c.Rank())/float64(c.Size()))
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		buf := mpi.AllocBuf(mpi.TypeDouble, 4)
		defer mpi.FreeBuf(buf)
		for r := 0; r < rounds; r++ {
			c.Work(work)
			c.Sendrecv(buf, next, 1, buf, prev, 1)
			c.Barrier()
		}
	}
}

// ssendRing passes a message around the ring with synchronous sends,
// even ranks sending first, so odd ranks post their receives late (Late
// Receiver) and even ranks early (Late Sender).
func ssendRing(c *mpi.Comm) {
	sb := mpi.AllocBuf(mpi.TypeByte, 64)
	rb := mpi.AllocBuf(mpi.TypeByte, 64)
	defer mpi.FreeBuf(sb)
	defer mpi.FreeBuf(rb)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	for r := 0; r < 3; r++ {
		c.Work(0.0001 * float64(c.Rank()%3))
		if c.Rank()%2 == 0 {
			c.Ssend(sb, next, 1)
			c.Recv(rb, prev, 1)
		} else {
			c.Recv(rb, prev, 1)
			c.Ssend(sb, next, 1)
		}
	}
}

// hybridLateSender runs the hybrid properties whose OpenMP imbalance
// makes MPI messages late, on teams of three threads.
func hybridLateSender(c *mpi.Comm) {
	for _, name := range []string{"hybrid_omp_imbalance_causes_late_sender", "hybrid_barrier_after_omp_regions"} {
		spec, ok := core.Get(name)
		if !ok {
			panic("unknown property " + name)
		}
		spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: omp.Options{Threads: 3}}, spec.Defaults())
	}
}

// caseWorld is a conformance case's program: its properties in order, as
// the oracle runs them.
func caseWorld(cs conformance.Case) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		for _, cp := range cs.Props {
			spec, ok := core.Get(cp.Name)
			if !ok {
				panic("unknown property " + cp.Name)
			}
			spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: omp.Options{Threads: cs.Threads}}, cp.Args())
			c.Barrier()
		}
	}
}

// readWorld runs body on procs ranks through a spool and reads the
// spool back as a trace.
func readWorld(t *testing.T, procs int, body func(c *mpi.Comm)) *trace.Trace {
	t.Helper()
	tr, err := trace.Read(bytes.NewReader(spoolWorld(t, procs, body)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// p2pDiff feeds events to a StreamAnalyzer and to the keep-every-half
// reduction and fails unless their unrounded reports are deeply equal.
// It returns the report.
func p2pDiff(t *testing.T, view trace.View, events []trace.Event) *analyzer.Report {
	t.Helper()
	feed := func(add func(*trace.Event)) {
		for i := range events {
			add(&events[i])
		}
	}
	a := analyzer.NewStreamAnalyzer(view, analyzer.Options{})
	feed(a.Add)
	got := a.Finish()
	want := analyzer.KeepEveryHalfReport(view, analyzer.Options{}, feed)
	if !reflect.DeepEqual(got, want) {
		for _, prop := range []string{analyzer.PropLateSender, analyzer.PropLateReceiver} {
			t.Logf("%s: wait %v, keep-every-half %v", prop, got.Wait(prop), want.Wait(prop))
		}
		t.Fatal("report differs from the keep-every-half reduction's")
	}
	return got
}

// TestP2PReductionMatchesKeepEveryHalf: reducing each message pair as it
// completes reports exactly what keeping every half until the end and
// pairing them in match order reported, on engine-written traces (the
// ring world, synchronous sends, hybrid teams, 200 generated conformance
// cases) and on generated streams that merge receives before their sends
// and leave halves unmatched.
func TestP2PReductionMatchesKeepEveryHalf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		body  func(c *mpi.Comm)
		props []string // properties the report must hold
	}{
		{"ring_1024", 1024, ringWorld(false), []string{analyzer.PropLateSender}},
		{"ssend", 8, ssendRing, []string{analyzer.PropLateSender, analyzer.PropLateReceiver}},
		{"hybrid", 6, hybridLateSender, []string{analyzer.PropLateSender}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := readWorld(t, tc.procs, tc.body)
			rep := p2pDiff(t, tr, tr.Events)
			for _, prop := range tc.props {
				if rep.Wait(prop) <= 0 {
					t.Errorf("report has no %s wait", prop)
				}
			}
		})
	}
	t.Run("conformance_seeds", func(t *testing.T) {
		waits, messages := 0, 0
		for seed := uint64(1); seed <= 200; seed++ {
			cs := conformance.Generate(seed, conformance.Config{})
			tr := readWorld(t, cs.Procs, caseWorld(cs))
			rep := p2pDiff(t, tr, tr.Events)
			if rep.Wait(analyzer.PropLateSender) > 0 {
				waits++
			}
			messages += rep.Messages.Count
		}
		t.Logf("%d messages, %d cases with a Late Sender wait", messages, waits)
		if waits == 0 {
			t.Fatal("no generated case had a Late Sender wait")
		}
	})
	t.Run("generated_streams", func(t *testing.T) {
		recvFirst, unmatched := 0, 0
		for seed := int64(1); seed <= 200; seed++ {
			tr, rf, um := p2pStream(seed)
			p2pDiff(t, tr, tr.Events)
			recvFirst += rf
			unmatched += um
		}
		if recvFirst == 0 || unmatched == 0 {
			t.Fatalf("%d receives merged before their sends, %d unmatched halves; the streams must hold both", recvFirst, unmatched)
		}
	})
}

// p2pStream generates a shuffled stream of point-to-point halves with
// distinct match ids between locations of up to three threads: some
// synchronous, some equal in time (a zero wait), some without a partner.
// It returns the stream as a trace, the pairs whose receive comes first
// and the unmatched halves.
func p2pStream(seed int64) (tr *trace.Trace, recvFirst, unmatched int) {
	rng := rand.New(rand.NewSource(seed))
	tr = &trace.Trace{
		Regions:    []string{"main", "MPI_Send", "MPI_Recv", "MPI_Ssend"},
		PathParent: []trace.PathID{-1, 0, 1, 1, 1},
		PathRegion: []trace.RegionID{-1, 0, 1, 2, 3},
	}
	loc := func() trace.Location {
		return trace.Location{Rank: int32(rng.Intn(8)), Thread: int32(rng.Intn(3))}
	}
	ids := map[uint64]bool{}
	sendIdx := map[uint64]int{}
	for n := 1 + rng.Intn(80); n > 0; n-- {
		m := uint64(rng.Int63())
		for ids[m] {
			m = uint64(rng.Int63())
		}
		ids[m] = true
		send := trace.Event{Time: rng.Float64(), Kind: trace.KindSend, Loc: loc(), Path: 2, Match: m, Bytes: 8}
		if rng.Intn(3) == 0 {
			send.Flags, send.Path = trace.FlagSync, 4
		}
		enter := rng.Float64()
		if rng.Intn(8) == 0 {
			enter = send.Time
		}
		recv := trace.Event{Time: enter + rng.Float64(), Aux: enter, Kind: trace.KindRecv, Loc: loc(), Path: 3, Match: m}
		switch rng.Intn(6) {
		case 0:
			tr.Events = append(tr.Events, send)
			unmatched++
		case 1:
			tr.Events = append(tr.Events, recv)
			unmatched++
		default:
			tr.Events = append(tr.Events, send, recv)
		}
	}
	rng.Shuffle(len(tr.Events), func(i, j int) { tr.Events[i], tr.Events[j] = tr.Events[j], tr.Events[i] })
	for i, ev := range tr.Events {
		if ev.Kind == trace.KindSend {
			sendIdx[ev.Match] = i
		}
	}
	for i, ev := range tr.Events {
		if j, ok := sendIdx[ev.Match]; ok && ev.Kind == trace.KindRecv && i < j {
			recvFirst++
		}
	}
	return tr, recvFirst, unmatched
}

// TestRepeatedMatchIDsPairInStreamOrder pins the pairing rule for a trace
// that repeats a match id: a half pairs with the opposite half pending
// when it arrives, and a half of the kind already pending replaces it.
func TestRepeatedMatchIDsPairInStreamOrder(t *testing.T) {
	tr := &trace.Trace{
		Regions:    []string{"MPI_Send", "MPI_Recv"},
		PathParent: []trace.PathID{-1, 0, 0},
		PathRegion: []trace.RegionID{-1, 0, 1},
	}
	recv := func(enter float64, rank int32) trace.Event {
		return trace.Event{Time: enter + 1, Aux: enter, Kind: trace.KindRecv, Loc: trace.Location{Rank: rank}, Path: 2, Match: 7}
	}
	send := func(at float64) trace.Event {
		return trace.Event{Time: at, Kind: trace.KindSend, Path: 1, Match: 7}
	}
	tr.Events = []trace.Event{
		send(5), send(3), // the second send replaces the first
		recv(1, 1),  // pairs with send(3): wait 2 on rank 1
		recv(0, 2),  // pending
		send(4),     // pairs with recv(0): wait 4 on rank 2
		recv(10, 3), // unmatched
	}
	a := analyzer.NewStreamAnalyzer(tr, analyzer.Options{})
	for i := range tr.Events {
		a.Add(&tr.Events[i])
	}
	if a.PendingP2P() != 1 || a.P2PWaits() != 2 {
		t.Fatalf("%d halves pending, %d pairs kept; want 1 and 2", a.PendingP2P(), a.P2PWaits())
	}
	r := a.Finish().Get(analyzer.PropLateSender)
	if r == nil || r.Instances != 2 || r.Wait != 6 ||
		r.ByLocation[trace.Location{Rank: 1}] != 2 || r.ByLocation[trace.Location{Rank: 2}] != 4 {
		t.Fatalf("late sender result %+v, want waits 2 on rank 1 and 4 on rank 2", r)
	}
}

// TestPendingP2PStaysFlat: the point-to-point halves the analyzer holds
// are the messages in flight, so a ring world holds as many after 60
// rounds as after 6, at most one send and one receive per rank, whether
// it is fed in merged order or, as AnalyzeStream feeds it, in spool
// order.
func TestPendingP2PStaysFlat(t *testing.T) {
	const procs = 256
	peak := func(rounds int) (merged, spooled, messages int) {
		spool := spoolWorld(t, procs, ringRounds(rounds))
		tr, err := trace.Read(bytes.NewReader(spool))
		if err != nil {
			t.Fatal(err)
		}
		a := analyzer.NewStreamAnalyzer(tr, analyzer.Options{})
		for i := range tr.Events {
			a.Add(&tr.Events[i])
			merged = max(merged, a.PendingP2P())
		}
		messages = a.Finish().Messages.Count
		st := openStream(t, spool)
		a = analyzer.NewStreamAnalyzer(st, analyzer.Options{})
		if err := st.ForEach(func(ev *trace.Event) {
			a.Add(ev)
			spooled = max(spooled, a.PendingP2P())
		}); err != nil {
			t.Fatal(err)
		}
		if n := a.Finish().Messages.Count; n != messages {
			t.Fatalf("spool order counted %d messages, merged order %d", n, messages)
		}
		return merged, spooled, messages
	}
	p6, s6, m6 := peak(6)
	p60, s60, m60 := peak(60)
	t.Logf("peak pending halves in merged order: %d over %d messages, %d over %d", p6, m6, p60, m60)
	t.Logf("peak pending halves in spool order: %d over %d messages, %d over %d", s6, m6, s60, m60)
	if m60 != 10*m6 || m6 != 6*procs {
		t.Fatalf("%d and %d messages, want %d and %d", m6, m60, 6*procs, 60*procs)
	}
	if p60 > p6 || p6 > 2*procs {
		t.Fatalf("peak pending halves in merged order %d at 6 rounds, %d at 60; want flat and at most %d", p6, p60, 2*procs)
	}
	if s60 > s6 || s6 > 2*procs {
		t.Fatalf("peak pending halves in spool order %d at 6 rounds, %d at 60; want flat and at most %d", s6, s60, 2*procs)
	}
}
