package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func loc(r, t int32) Location { return Location{Rank: r, Thread: t} }

func TestBufferRegionsAndPaths(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("main", 0)
	b.Enter("phase1", 1)
	b.Exit(2)
	b.Enter("phase2", 3)
	b.Enter("inner", 4)
	b.Exit(5)
	b.Exit(6)
	b.Exit(7)
	tr := Merge(b)
	if len(tr.Events) != 8 {
		t.Fatalf("got %d events", len(tr.Events))
	}
	// The inner event's path must render main/phase2/inner.
	var innerPath PathID
	for _, ev := range tr.Events {
		if ev.Kind == KindEnter && tr.RegionName(ev.Region) == "inner" {
			innerPath = ev.Path
		}
	}
	if got := tr.PathString(innerPath); got != "main/phase2/inner" {
		t.Errorf("inner path = %q", got)
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exit without Enter did not panic")
		}
	}()
	NewBuffer(loc(0, 0)).Exit(1)
}

func TestNilBufferIsSafe(t *testing.T) {
	var b *Buffer
	b.Enter("x", 0) // must not panic
	b.Exit(1)
	b.Record(Event{})
	if b.Len() != 0 || b.Depth() != 0 {
		t.Error("nil buffer reports nonzero state")
	}
}

func TestMergeOrdersAndRemaps(t *testing.T) {
	b0 := NewBuffer(loc(0, 0))
	b1 := NewBuffer(loc(1, 0))
	// Different interning orders for the same names.
	b0.Enter("alpha", 0)
	b0.Enter("beta", 2)
	b0.Exit(3)
	b0.Exit(4)
	b1.Enter("beta", 1)
	b1.Enter("alpha", 2.5)
	b1.Exit(5)
	b1.Exit(6)
	tr := Merge(b0, b1)
	// Events sorted by time.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// Region names preserved per location.
	for _, ev := range tr.Events {
		if ev.Kind != KindEnter {
			continue
		}
		name := tr.RegionName(ev.Region)
		if ev.Loc == loc(0, 0) && ev.Time == 0 && name != "alpha" {
			t.Errorf("loc0 first region = %q", name)
		}
		if ev.Loc == loc(1, 0) && ev.Time == 1 && name != "beta" {
			t.Errorf("loc1 first region = %q", name)
		}
	}
	if len(tr.Locations) != 2 {
		t.Errorf("locations = %v", tr.Locations)
	}
	if tr.Duration() != 6 {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestMergeSkipsNil(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("x", 0)
	b.Exit(1)
	tr := Merge(nil, b, nil)
	if len(tr.Events) != 2 {
		t.Errorf("got %d events", len(tr.Events))
	}
}

func TestStats(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("main", 0)
	b.Enter("work", 1)
	b.Exit(4) // work: 3s inclusive
	b.Enter("work", 5)
	b.Exit(6) // work: 1s
	b.Exit(10)
	tr := Merge(b)
	st := ComputeStats(tr)
	if got := st.RegionInclusive("work"); got != 4 {
		t.Errorf("work inclusive = %v, want 4", got)
	}
	if got := st.RegionCount("work"); got != 2 {
		t.Errorf("work count = %d, want 2", got)
	}
	// main: inclusive 10, exclusive 10-4=6.
	ms := st.Regions["main"][loc(0, 0)]
	if ms.Inclusive != 10 || ms.Exclusive != 6 {
		t.Errorf("main = %+v", ms)
	}
	if st.TotalTime != 10 {
		t.Errorf("total = %v", st.TotalTime)
	}
	prof := st.Profile()
	if !strings.Contains(prof, "main") || !strings.Contains(prof, "work") {
		t.Errorf("profile missing regions:\n%s", prof)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	b0 := NewBuffer(loc(0, 0))
	b0.Enter("main", 0)
	b0.Record(Event{
		Time: 1.5, Aux: 1.0, Kind: KindSend, Peer: 1, CRank: 0,
		Tag: 7, Bytes: 2048, Match: 42, Comm: 3, Flags: FlagSync,
	})
	b0.Exit(2)
	b1 := NewBuffer(loc(1, 2))
	b1.Enter("main", 0.5)
	b1.Record(Event{
		Time: 2.5, Aux: 0.5, Kind: KindColl, Coll: CollBcast,
		Root: 0, CRank: 1, Match: 9, Comm: 0, Bytes: 64,
	})
	b1.Exit(3)
	tr := Merge(b0, b1)

	var buf bytes.Buffer
	n, err := tr.Write(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != got.Events[i] {
			t.Errorf("event %d differs:\n%+v\n%+v", i, tr.Events[i], got.Events[i])
		}
	}
	if len(got.Regions) != len(tr.Regions) {
		t.Errorf("region tables differ")
	}
	for i, ev := range got.Events {
		if got.PathString(ev.Path) != tr.PathString(tr.Events[i].Path) {
			t.Errorf("path of event %d differs", i)
		}
	}
	if len(got.Locations) != 2 {
		t.Errorf("locations = %v", got.Locations)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid magic, truncated body.
	if _, err := Read(bytes.NewReader([]byte("ATSC\x01"))); err == nil {
		t.Error("truncated trace accepted")
	}
	// The retired merged format.
	if _, err := Read(bytes.NewReader([]byte("ATS1\x00\x01\x00\x00"))); err == nil {
		t.Error("ATS1 trace accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("x", 0)
	b.Exit(1)
	tr := Merge(b)
	path := t.TempDir() + "/trace.atsc"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 {
		t.Errorf("got %d events", len(got.Events))
	}
}

func TestTimeline(t *testing.T) {
	b0 := NewBuffer(loc(0, 0))
	b0.Enter("work", 0)
	b0.Exit(10)
	b1 := NewBuffer(loc(1, 0))
	b1.Enter("wait", 0)
	b1.Exit(10)
	tr := Merge(b0, b1)
	out := Timeline(tr, TimelineOptions{Width: 40})
	if !strings.Contains(out, "0.0") || !strings.Contains(out, "1.0") {
		t.Errorf("timeline missing location rows:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Errorf("timeline missing legend:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var rowLen int
	for _, l := range lines {
		if strings.Contains(l, "|") {
			if rowLen == 0 {
				rowLen = len(l)
			} else if strings.HasPrefix(strings.TrimSpace(l), "0.") || strings.HasPrefix(strings.TrimSpace(l), "1.") {
				if len(l) != rowLen {
					t.Errorf("ragged timeline rows:\n%s", out)
				}
			}
		}
	}
}

func TestTimelineNested(t *testing.T) {
	// Nested regions: the innermost region must win in the rendering.
	b := NewBuffer(loc(0, 0))
	b.Enter("outer", 0)
	b.Enter("inner", 4)
	b.Exit(6)
	b.Exit(10)
	tr := Merge(b)
	out := Timeline(tr, TimelineOptions{Width: 10, Regions: []string{"inner", "outer"}})
	// With width 10 over span 10, columns 4-5 are inner ('W'), rest outer ('S').
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "|") {
			row = l[strings.Index(l, "|")+1:]
			row = row[:10]
			break
		}
	}
	if row[0] != 'S' || row[4] != 'W' || row[9] != 'S' {
		t.Errorf("unexpected nesting render: %q (out:\n%s)", row, out)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tr := Merge()
	if out := Timeline(tr, TimelineOptions{}); !strings.Contains(out, "empty") {
		t.Errorf("empty trace render = %q", out)
	}
}

// Round-trip property test: arbitrary event payloads survive
// serialization bit-exactly.
func TestQuickSerializationRoundTrip(t *testing.T) {
	inv := func(times []float64, peers []int16, bytes16 []uint16) bool {
		b := NewBuffer(loc(0, 0))
		b.Enter("r", 0)
		n := len(times)
		if len(peers) < n {
			n = len(peers)
		}
		if len(bytes16) < n {
			n = len(bytes16)
		}
		for i := 0; i < n; i++ {
			b.Record(Event{
				Time: times[i], Kind: KindSend, Peer: int32(peers[i]),
				Bytes: int64(bytes16[i]), Match: uint64(i),
			})
		}
		b.Exit(1)
		tr := Merge(b)
		var buf bytes.Buffer
		if _, err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if tr.Events[i] != got.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(inv, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKindAndCollStrings(t *testing.T) {
	if KindSend.String() != "send" || KindColl.String() != "coll" {
		t.Error("kind strings wrong")
	}
	if CollBcast.String() != "MPI_Bcast" {
		t.Errorf("CollBcast = %q", CollBcast.String())
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestPathProfile(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("main", 0)
	b.Enter("work", 1)
	b.Exit(4)
	b.Enter("comm", 4)
	b.Enter("send", 4.5)
	b.Exit(5)
	b.Exit(6)
	b.Exit(10)
	tr := Merge(b)
	pp := ComputePathProfile(tr)
	if pp.Total != 10 {
		t.Errorf("total = %v", pp.Total)
	}
	// Find paths by rendered string.
	byPath := map[string]float64{}
	for p, v := range pp.Inclusive {
		byPath[tr.PathString(p)] = v
	}
	if byPath["main"] != 10 || byPath["main/work"] != 3 ||
		byPath["main/comm"] != 2 || byPath["main/comm/send"] != 0.5 {
		t.Errorf("inclusive = %v", byPath)
	}
	out := pp.RenderTree(tr)
	for _, want := range []string{"main", "work", "comm", "send", "call tree"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	// "main" line must come before its children and children ordered by
	// time (work before comm).
	if strings.Index(out, "work") > strings.Index(out, "comm") {
		t.Errorf("children not sorted by inclusive time:\n%s", out)
	}
}

// TestBufferInternsAsMap: a buffer's region and path tables intern the
// ids a map-indexed interner assigns, in the same order, while they are
// scanned and after they outgrow internScan and are indexed, also in a
// pooled buffer whose maps a previous large table left behind.
func TestBufferInternsAsMap(t *testing.T) {
	for round := 0; round < 3; round++ {
		b := NewBuffer(loc(0, int32(round)))
		regionIDs := map[string]RegionID{}
		pathChild := map[pathKey]PathID{}
		nPaths := PathID(1)
		// internScan+1 to 3*internScan+1 names, revisited under varying parents, so
		// both tables cross the bound and keep interning past it.
		names := (round+1)*internScan + 1
		for i := 0; i < 4*names; i++ {
			name := fmt.Sprintf("r%d", (i*5)%names)
			want, ok := regionIDs[name]
			if !ok {
				want = RegionID(len(regionIDs))
				regionIDs[name] = want
			}
			if got := b.region(name); got != want {
				t.Fatalf("round %d: region %q interned as %d, map says %d", round, name, got, want)
			}
			parent := b.cur
			if i%5 == 4 {
				parent = PathRoot
			}
			k := pathKey{parent, want}
			wantPath, ok := pathChild[k]
			if !ok {
				wantPath = nPaths
				pathChild[k] = wantPath
				nPaths++
			}
			if got := b.child(parent, want); got != wantPath {
				t.Fatalf("round %d: path (%d, %d) interned as %d, map says %d", round, parent, want, got, wantPath)
			}
			b.cur = wantPath
		}
		if len(b.regions) <= internScan || len(b.pathParent) <= internScan {
			t.Fatalf("round %d: %d regions, %d paths; the test must cross internScan", round, len(b.regions), len(b.pathParent))
		}
		if len(b.regionIDs) != len(b.regions) || len(b.pathChild) != len(b.pathParent)-1 {
			t.Fatalf("round %d: maps index %d regions / %d paths of %d / %d",
				round, len(b.regionIDs), len(b.pathChild), len(b.regions), len(b.pathParent)-1)
		}
		b.Release()
	}
	// A buffer whose tables stay small builds no map; the path table
	// counts its root.
	b := &Buffer{}
	b.pathParent, b.pathRegion = []PathID{-1}, []RegionID{-1}
	for i := 0; i < internScan-1; i++ {
		b.child(PathRoot, b.region(fmt.Sprint(i)))
	}
	if b.regionIDs != nil || b.pathChild != nil {
		t.Fatalf("%d regions and %d paths built an index", len(b.regions), len(b.pathParent))
	}
}
