package analyzer

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func loc(r, th int32) trace.Location { return trace.Location{Rank: r, Thread: th} }

// buildP2PTrace constructs a minimal two-rank trace with one message whose
// send entered at sendT and whose receive entered at recvT (completing at
// recvDone), optionally synchronous.
func buildP2PTrace(sendT, recvT, recvDone float64, sync bool) *trace.Trace {
	var flags uint8
	if sync {
		flags = trace.FlagSync
	}
	b0 := trace.NewBuffer(loc(0, 0))
	b0.Enter("app", 0)
	b0.Enter("MPI_Send", sendT)
	b0.Record(trace.Event{Time: sendT, Kind: trace.KindSend, Peer: 1, CRank: 0,
		Tag: 1, Bytes: 8, Match: 1, Flags: flags})
	b0.Exit(sendT + 0.001)
	b0.Exit(recvDone + 0.01)

	b1 := trace.NewBuffer(loc(1, 0))
	b1.Enter("app", 0)
	b1.Enter("MPI_Recv", recvT)
	b1.Record(trace.Event{Time: recvDone, Aux: recvT, Kind: trace.KindRecv,
		Peer: 0, CRank: 1, Tag: 1, Bytes: 8, Match: 1, Flags: flags})
	b1.Exit(recvDone)
	b1.Exit(recvDone + 0.01)
	return trace.Merge(b0, b1)
}

func TestLateSenderDetection(t *testing.T) {
	// Receiver enters at 0.1, sender at 0.4: wait = 0.3.
	tr := buildP2PTrace(0.4, 0.1, 0.41, false)
	rep := Analyze(tr, Options{})
	got := rep.Wait(PropLateSender)
	if math.Abs(got-0.3) > 1e-9 {
		t.Errorf("late sender wait = %v, want 0.3", got)
	}
	r := rep.Get(PropLateSender)
	if r.Instances != 1 {
		t.Errorf("instances = %d", r.Instances)
	}
	// Attributed to the receiver's location and its MPI_Recv path.
	if w := r.ByLocation[loc(1, 0)]; math.Abs(w-0.3) > 1e-9 {
		t.Errorf("wait at receiver = %v", w)
	}
	if p := r.TopPath(); !strings.Contains(p, "MPI_Recv") {
		t.Errorf("top path = %q", p)
	}
	// No late receiver for an eager message.
	if rep.Wait(PropLateReceiver) != 0 {
		t.Error("spurious late receiver")
	}
}

func TestLateReceiverDetection(t *testing.T) {
	// Sync message: sender enters at 0.1, receiver at 0.5: sender waited 0.4.
	tr := buildP2PTrace(0.1, 0.5, 0.51, true)
	rep := Analyze(tr, Options{})
	got := rep.Wait(PropLateReceiver)
	if math.Abs(got-0.4) > 1e-9 {
		t.Errorf("late receiver wait = %v, want 0.4", got)
	}
	r := rep.Get(PropLateReceiver)
	if w := r.ByLocation[loc(0, 0)]; math.Abs(w-0.4) > 1e-9 {
		t.Errorf("wait at sender = %v", w)
	}
	if rep.Wait(PropLateSender) != 0 {
		t.Error("spurious late sender")
	}
}

func TestNonSyncLateReceiverIgnored(t *testing.T) {
	// Eager message with late receiver: no sender wait state exists.
	tr := buildP2PTrace(0.1, 0.5, 0.51, false)
	rep := Analyze(tr, Options{})
	if rep.Wait(PropLateReceiver) != 0 {
		t.Error("eager message produced late-receiver wait")
	}
}

func TestUnmatchedSendTolerated(t *testing.T) {
	b := trace.NewBuffer(loc(0, 0))
	b.Enter("app", 0)
	b.Record(trace.Event{Time: 0.1, Kind: trace.KindSend, Match: 7})
	b.Exit(1)
	rep := Analyze(trace.Merge(b), Options{})
	if rep.Wait(PropLateSender) != 0 || rep.Wait(PropLateReceiver) != 0 {
		t.Error("unmatched send produced findings")
	}
}

// buildCollTrace constructs a P-rank trace of one collective with given
// enter times; root < 0 means unrooted.  All exit at maxEnter+0.01.
func buildCollTrace(kind trace.CollKind, enters []float64, root int) *trace.Trace {
	maxE := 0.0
	for _, e := range enters {
		if e > maxE {
			maxE = e
		}
	}
	exit := maxE + 0.01
	var bufs []*trace.Buffer
	for i, e := range enters {
		b := trace.NewBuffer(loc(int32(i), 0))
		b.Enter("app", 0)
		b.Enter(kind.String(), e)
		var flags uint8
		if i == root {
			flags = trace.FlagRoot
		}
		b.Record(trace.Event{Time: exit, Aux: e, Kind: trace.KindColl,
			Coll: kind, Root: int32(root), CRank: int32(i), Match: 5, Flags: flags})
		b.Exit(exit)
		b.Exit(exit + 0.001)
		bufs = append(bufs, b)
	}
	return trace.Merge(bufs...)
}

func TestWaitAtBarrierDetection(t *testing.T) {
	tr := buildCollTrace(trace.CollBarrier, []float64{0.1, 0.3, 0.2, 0.3}, -1)
	rep := Analyze(tr, Options{})
	// Waits: 0.2 + 0 + 0.1 + 0 = 0.3.
	if got := rep.Wait(PropWaitAtBarrier); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("barrier wait = %v, want 0.3", got)
	}
	r := rep.Get(PropWaitAtBarrier)
	if w := r.ByLocation[loc(0, 0)]; math.Abs(w-0.2) > 1e-9 {
		t.Errorf("rank 0 wait = %v, want 0.2", w)
	}
}

func TestLateBroadcastDetection(t *testing.T) {
	// Root (rank 2) enters at 0.5; others at 0.1, 0.2, 0.3.
	tr := buildCollTrace(trace.CollBcast, []float64{0.1, 0.2, 0.5, 0.3}, 2)
	rep := Analyze(tr, Options{})
	// Waits: 0.4 + 0.3 + 0.2 = 0.9.
	if got := rep.Wait(PropLateBroadcast); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("late broadcast wait = %v, want 0.9", got)
	}
	r := rep.Get(PropLateBroadcast)
	if _, hasRoot := r.ByLocation[loc(2, 0)]; hasRoot {
		t.Error("root charged with broadcast waiting")
	}
}

func TestLateBroadcastNoRootTolerated(t *testing.T) {
	tr := buildCollTrace(trace.CollBcast, []float64{0.1, 0.2}, -1)
	rep := Analyze(tr, Options{})
	if rep.Wait(PropLateBroadcast) != 0 {
		t.Error("rootless bcast group produced waits")
	}
}

func TestEarlyReduceDetection(t *testing.T) {
	// Root (rank 0) enters at 0.1; last contributor at 0.6: root waits 0.5.
	tr := buildCollTrace(trace.CollReduce, []float64{0.1, 0.4, 0.6, 0.2}, 0)
	rep := Analyze(tr, Options{})
	if got := rep.Wait(PropEarlyReduce); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("early reduce wait = %v, want 0.5", got)
	}
	r := rep.Get(PropEarlyReduce)
	if w := r.ByLocation[loc(0, 0)]; math.Abs(w-0.5) > 1e-9 {
		t.Errorf("root wait = %v", w)
	}
	if len(r.ByLocation) != 1 {
		t.Errorf("non-roots charged: %v", r.ByLocation)
	}
}

func TestEarlyReduceLateRootNoWait(t *testing.T) {
	// Root arrives last: no early-reduce wait.
	tr := buildCollTrace(trace.CollReduce, []float64{0.9, 0.4, 0.6, 0.2}, 0)
	rep := Analyze(tr, Options{})
	if rep.Wait(PropEarlyReduce) != 0 {
		t.Error("late root charged with early-reduce wait")
	}
}

func TestWaitAtNxNDetection(t *testing.T) {
	tr := buildCollTrace(trace.CollAlltoall, []float64{0.0, 0.4}, -1)
	rep := Analyze(tr, Options{})
	if got := rep.Wait(PropWaitAtNxN); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("NxN wait = %v, want 0.4", got)
	}
}

func TestScanPrefixWaits(t *testing.T) {
	// Enter times 0.4, 0.1, 0.2: rank1 waits for rank0 (0.3), rank2
	// waits for max(0.4,0.1)-0.2 = 0.2; rank0 waits 0.
	tr := buildCollTrace(trace.CollScan, []float64{0.4, 0.1, 0.2}, -1)
	rep := Analyze(tr, Options{})
	if got := rep.Wait(PropWaitAtNxN); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("scan waits = %v, want 0.5", got)
	}
}

func TestOMPCollDetection(t *testing.T) {
	cases := []struct {
		kind trace.CollKind
		prop string
	}{
		{trace.CollOMPBarrier, PropOMPBarrier},
		{trace.CollOMPForEnd, PropOMPLoop},
		{trace.CollOMPSection, PropOMPSections},
		{trace.CollOMPJoin, PropOMPRegion},
	}
	for _, tc := range cases {
		tr := buildCollTrace(tc.kind, []float64{0.1, 0.5}, -1)
		rep := Analyze(tr, Options{})
		if got := rep.Wait(tc.prop); math.Abs(got-0.4) > 1e-9 {
			t.Errorf("%v: wait = %v, want 0.4", tc.kind, got)
		}
	}
}

func TestOMPSingleDetection(t *testing.T) {
	// Thread 1 executes (root); thread 0 idles from 0.1 to exit 0.51.
	tr := buildCollTrace(trace.CollOMPSingle, []float64{0.1, 0.5}, 1)
	rep := Analyze(tr, Options{})
	// Exit is maxEnter+0.01 = 0.51; thread 0 waits 0.41.
	if got := rep.Wait(PropOMPSingle); math.Abs(got-0.41) > 1e-9 {
		t.Errorf("single wait = %v, want 0.41", got)
	}
}

func TestLockDetection(t *testing.T) {
	b := trace.NewBuffer(loc(0, 1))
	b.Enter("app", 0)
	b.Record(trace.Event{Time: 0.5, Aux: 0.2, Kind: trace.KindLock, CRank: 1})
	b.Exit(1)
	rep := Analyze(trace.Merge(b), Options{})
	if got := rep.Wait(PropOMPCritical); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("lock wait = %v, want 0.2", got)
	}
}

func TestInitFinalizeMetric(t *testing.T) {
	b := trace.NewBuffer(loc(0, 0))
	b.Enter("MPI_Init", 0)
	b.Exit(0.4)
	b.Enter("compute", 0.4)
	b.Exit(0.5)
	b.Enter("MPI_Finalize", 0.5)
	b.Exit(0.6)
	rep := Analyze(trace.Merge(b), Options{})
	r := rep.Get(PropInitFinalize)
	if r == nil {
		t.Fatal("init/finalize metric missing")
	}
	if math.Abs(r.Wait-0.5) > 1e-9 {
		t.Errorf("init+finalize = %v, want 0.5", r.Wait)
	}
	// Severity relative to the 0.6s span.
	if math.Abs(r.Severity-0.5/0.6) > 1e-9 {
		t.Errorf("severity = %v", r.Severity)
	}
	// Info metrics never appear in Significant().
	for _, s := range rep.Significant() {
		if s.Property == PropInitFinalize || s.Property == PropMPITimeFraction {
			t.Errorf("info metric %s ranked as finding", s.Property)
		}
	}
}

func TestThresholdFiltering(t *testing.T) {
	// 0.3 wait over 100s total: severity 0.3%.
	b0 := trace.NewBuffer(loc(0, 0))
	b0.Enter("app", 0)
	b0.Record(trace.Event{Time: 0.4, Kind: trace.KindSend, Match: 1, CRank: 0, Peer: 1})
	b0.Exit(100)
	b1 := trace.NewBuffer(loc(1, 0))
	b1.Enter("app", 0)
	b1.Record(trace.Event{Time: 0.45, Aux: 0.1, Kind: trace.KindRecv, Match: 1, CRank: 1, Peer: 0})
	b1.Exit(100)
	tr := trace.Merge(b0, b1)

	strict := Analyze(tr, Options{Threshold: 0.01})
	if strict.Top() != nil {
		t.Errorf("0.15%% severity survived a 1%% threshold")
	}
	loose := Analyze(tr, Options{Threshold: 0.0001})
	if loose.Top() == nil || loose.Top().Property != PropLateSender {
		t.Errorf("finding missing at 0.01%% threshold")
	}
}

func TestRanking(t *testing.T) {
	// Two barrier groups and one bigger bcast wait: ranking must order by
	// severity.
	b := func(kind trace.CollKind, match uint64, enters []float64, root int) []*trace.Buffer {
		var bufs []*trace.Buffer
		maxE := 0.0
		for _, e := range enters {
			if e > maxE {
				maxE = e
			}
		}
		for i, e := range enters {
			bb := trace.NewBuffer(loc(int32(i), int32(match)))
			bb.Enter("app", 0)
			var flags uint8
			if i == root {
				flags = trace.FlagRoot
			}
			bb.Record(trace.Event{Time: maxE, Aux: e, Kind: trace.KindColl,
				Coll: kind, Root: int32(root), CRank: int32(i), Match: match, Flags: flags})
			bb.Exit(maxE + 0.1)
			bufs = append(bufs, bb)
		}
		return bufs
	}
	var all []*trace.Buffer
	all = append(all, b(trace.CollBarrier, 1, []float64{0, 0.1}, -1)...)
	all = append(all, b(trace.CollBcast, 2, []float64{0, 0.9}, 1)...)
	rep := Analyze(trace.Merge(all...), Options{Threshold: 0.001})
	sig := rep.Significant()
	if len(sig) < 2 {
		t.Fatalf("got %d findings", len(sig))
	}
	if sig[0].Property != PropLateBroadcast {
		t.Errorf("top finding = %s, want late_broadcast", sig[0].Property)
	}
}

func TestRenderPanes(t *testing.T) {
	tr := buildCollTrace(trace.CollBcast, []float64{0.0, 0.0, 0.5}, 2)
	rep := Analyze(tr, Options{})
	out := rep.Render()
	for _, want := range []string{
		"late_broadcast", "mpi_collective", "total_waiting",
		"call paths", "locations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if s := rep.RenderCallPaths("no_such_prop"); !strings.Contains(s, "not detected") {
		t.Errorf("missing-property pane = %q", s)
	}
	if s := rep.RenderLocations("no_such_prop"); !strings.Contains(s, "not detected") {
		t.Errorf("missing-property pane = %q", s)
	}
}

func TestRenderNegative(t *testing.T) {
	b := trace.NewBuffer(loc(0, 0))
	b.Enter("app", 0)
	b.Exit(1)
	rep := Analyze(trace.Merge(b), Options{})
	if !strings.Contains(rep.Render(), "no significant performance properties") {
		t.Error("clean trace did not render as clean")
	}
}

func TestAnalyzeSerializedTraceIdentical(t *testing.T) {
	tr := buildCollTrace(trace.CollBcast, []float64{0.1, 0.2, 0.6}, 2)
	var buf bytes.Buffer
	if _, err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1 := Analyze(tr, Options{})
	r2 := Analyze(tr2, Options{})
	if r1.Wait(PropLateBroadcast) != r2.Wait(PropLateBroadcast) {
		t.Error("analysis differs after serialization round trip")
	}
}

func TestHierarchyWellFormed(t *testing.T) {
	for prop, parent := range Hierarchy {
		if prop == PropTotalWaiting {
			t.Errorf("root has a parent entry")
		}
		// Walk to the root without cycles.
		seen := map[string]bool{prop: true}
		node := parent
		for node != PropTotalWaiting {
			if seen[node] {
				t.Fatalf("cycle at %s", node)
			}
			seen[node] = true
			next, ok := Hierarchy[node]
			if !ok {
				t.Fatalf("node %s (parent of %s) lacks a parent path to root", node, prop)
			}
			node = next
		}
	}
	// Every detectable leaf property must be in the hierarchy.
	for _, p := range []string{
		PropLateSender, PropLateReceiver, PropWaitAtBarrier,
		PropLateBroadcast, PropEarlyReduce, PropWaitAtNxN,
		PropOMPRegion, PropOMPBarrier, PropOMPLoop, PropOMPSections,
		PropOMPSingle, PropOMPCritical,
	} {
		if _, ok := Hierarchy[p]; !ok {
			t.Errorf("property %s missing from hierarchy", p)
		}
	}
}

func TestWriteJSONReport(t *testing.T) {
	tr := buildCollTrace(trace.CollBcast, []float64{0.0, 0.0, 0.5}, 2)
	rep := Analyze(tr, Options{})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	findings := m["findings"].([]any)
	if len(findings) == 0 {
		t.Fatal("no findings exported")
	}
	f := findings[0].(map[string]any)
	if f["property"] != PropLateBroadcast {
		t.Errorf("property = %v", f["property"])
	}
	if f["wait_s"].(float64) != 1.0 {
		t.Errorf("wait = %v", f["wait_s"])
	}
	locs := f["by_location"].(map[string]any)
	if _, ok := locs["0.0"]; !ok {
		t.Errorf("locations = %v", locs)
	}
}

func TestMessageStatsComputed(t *testing.T) {
	b0 := trace.NewBuffer(loc(0, 0))
	b0.Enter("app", 0)
	b0.Record(trace.Event{Time: 0.1, Kind: trace.KindSend, Bytes: 100, Match: 1})
	b0.Record(trace.Event{Time: 0.2, Kind: trace.KindSend, Bytes: 300, Match: 2})
	b0.Exit(1)
	rep := Analyze(trace.Merge(b0), Options{})
	if rep.Messages.Count != 2 || rep.Messages.Bytes != 400 {
		t.Errorf("stats = %+v", rep.Messages)
	}
	if rep.Messages.AvgBytes != 200 {
		t.Errorf("avg = %v", rep.Messages.AvgBytes)
	}
	if rep.Messages.Rate != 2 {
		t.Errorf("rate = %v", rep.Messages.Rate)
	}
}
