package conformance

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/asl"
	"repro/internal/mpi"
	"repro/internal/perturb"
	"repro/internal/rescache"
)

// withCache installs a fresh on-disk result cache for the duration of
// the test and returns it.
func withCache(t *testing.T) *rescache.Store {
	t.Helper()
	s, err := rescache.Open(filepath.Join(t.TempDir(), "rescache"))
	if err != nil {
		t.Fatal(err)
	}
	SetResultCache(s)
	t.Cleanup(func() { SetResultCache(nil) })
	return s
}

// TestCheckCachedWarmEqualsCold is the tentpole correctness claim at the
// oracle surface: a warm CheckCached must return an Outcome deeply equal
// to the cold one — the cached value IS the cold value, replayed — and
// must come from the cache, not a re-run.
func TestCheckCachedWarmEqualsCold(t *testing.T) {
	s := withCache(t)
	cs := Generate(11, Config{})
	cold, err := CheckCached(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Puts == 0 {
		t.Fatal("cold check wrote nothing through")
	}
	warm, err := CheckCached(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Hits == 0 {
		t.Fatal("warm check did not hit the cache")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm outcome diverges from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	// And it must equal what an uncached oracle produces.
	SetResultCache(nil)
	plain, err := Check(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hash != plain.Hash || warm.Events != plain.Events {
		t.Fatalf("cached outcome diverges from Check: %+v vs %+v", warm, plain)
	}
}

// TestCheckCachedStaleEngineMisses: the engine version reaches a
// CheckCached entry only through the store's environment stamp, so an
// entry whose on-disk env records another engine version must miss, be
// recomputed, and be overwritten with the current stamp.
func TestCheckCachedStaleEngineMisses(t *testing.T) {
	s := withCache(t)
	cs := Generate(11, Config{})
	cold, err := CheckCached(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := checkKey(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "objects", key[:2], key+".json")
	readEntry := func() rescache.Entry {
		t.Helper()
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var e rescache.Entry
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := readEntry()
	e.Env["engine"] = mpi.EngineVersion + 1
	blob, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	again, err := CheckCached(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 || after.Puts != before.Puts+1 {
		t.Fatalf("stats %+v -> %+v; want one miss and one recomputed write", before, after)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatalf("recomputed outcome diverges:\ncold:  %+v\nagain: %+v", cold, again)
	}
	if e := readEntry(); e.Env["engine"] != mpi.EngineVersion {
		t.Fatalf("entry env %v not restamped with engine %d", e.Env, mpi.EngineVersion)
	}
}

// TestCheckCachedKeySeparatesOptions: different CheckOptions must never
// share an entry.
func TestCheckCachedKeySeparatesOptions(t *testing.T) {
	cs := Generate(11, Config{})
	base, err := checkKey(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	variants := []CheckOptions{
		{NoiseFloor: 99},
		{SkipDeterminism: true},
		{Perturb: perturb.Level(cs.Seed, 2)},
		{DropProperty: "late_sender"},
	}
	for _, opt := range variants {
		k, err := checkKey(cs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Fatalf("options %+v collide with the default key", opt)
		}
	}
	if k2, _ := checkKey(Generate(12, Config{}), CheckOptions{}); k2 == base {
		t.Fatal("different cases collide")
	}
}

// TestCalibrationDiskCacheRoundtrip: with a result cache installed, a
// calibration computed in one "process" (fresh in-memory cache) is
// reloaded from disk instead of recomputed.
func TestCalibrationDiskCacheRoundtrip(t *testing.T) {
	s := withCache(t)
	prof := perturb.Level(3, 1)
	key := calKey{procs: 2, threads: 2, prof: prof}
	key.prof.Seed = 0

	floor := CalibratedNoiseFloor(2, 2, prof)
	if s.Stats().Puts == 0 {
		t.Fatal("calibration did not write through to disk")
	}
	// Simulate a new process: drop the in-memory cell, keep the disk.
	calCache.Delete(key)
	hitsBefore := s.Stats().Hits
	again := CalibratedNoiseFloor(2, 2, prof)
	if again != floor {
		t.Fatalf("disk-reloaded floor %v != original %v", again, floor)
	}
	if s.Stats().Hits == hitsBefore {
		t.Fatal("second calibration did not read the disk cache")
	}
	calCache.Delete(key)
}

// TestCalibrationSingleFlight: concurrent callers that need the same
// fresh (shape, level) cell share one calibration and one cache write.
func TestCalibrationSingleFlight(t *testing.T) {
	s := withCache(t)
	prof := perturb.Level(3, 1)
	key := calKey{procs: 2, threads: 2, prof: prof}
	key.prof.Seed = 0
	calCache.Delete(key)
	t.Cleanup(func() { calCache.Delete(key) })

	const n = 8
	floors := make([]float64, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range floors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			floors[i] = CalibratedNoiseFloor(2, 2, prof)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, f := range floors {
		if f != floors[0] {
			t.Fatalf("caller %d got floor %v, caller 0 got %v", i, f, floors[0])
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("%d concurrent callers ran %d calibrations and wrote %d entries, want 1 and 1",
			n, st.Misses, st.Puts)
	}
}

// TestCheckRobustUsesCachePerLevel: a robust sweep writes one entry per
// level, and a warm sweep serves every level from the cache.
func TestCheckRobustUsesCachePerLevel(t *testing.T) {
	s := withCache(t)
	cs := Generate(11, Config{})
	cold, err := CheckRobust(cs, CheckOptions{}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	missesAfterCold := s.Stats().Misses
	warm, err := CheckRobust(cs, CheckOptions{}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Misses != missesAfterCold {
		t.Fatal("warm robust sweep missed the cache")
	}
	if !reflect.DeepEqual(cold.Outcomes, warm.Outcomes) {
		t.Fatal("warm robust outcomes diverge from cold")
	}
}

// TestCheckCachedASLRedefinitionMisses: re-registering an ASL scenario
// under the same name with a different closed form must not replay the
// verdict cached for the old definition.
func TestCheckCachedASLRedefinitionMisses(t *testing.T) {
	s := withCache(t)
	name := registerProbe(t, conformanceScenario)
	cs := probeCase(name, 4)
	opt := CheckOptions{SkipDeterminism: true}
	if _, err := CheckCached(cs, opt); err != nil {
		t.Fatal(err)
	}
	asl.Unregister(name)
	registerProbe(t, strings.Replace(conformanceScenario,
		"severity floor(ranks() / 2) * extra * r;",
		"severity 2 * floor(ranks() / 2) * extra * r;", 1))
	if _, err := CheckCached(cs, opt); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v; the redefined scenario was served the old verdict", st)
	}
}

// TestCheckCachedServesCaseCarryingEntries: cache values written while
// Outcome still carried the checked Case hold a "Case" object beside the
// verdict.  Such an entry must still hit and replay its verdict, with no
// recompute and no rewrite.
func TestCheckCachedServesCaseCarryingEntries(t *testing.T) {
	s := withCache(t)
	cs := Generate(11, Config{})
	key, err := checkKey(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A sentinel verdict no recompute would produce, in the old layout.
	old := struct {
		Case       Case
		Hash       string
		Events     int
		Findings   int
		Violations []Violation
	}{cs, "0123456789abcdef", 4242, 7, []Violation{{Axis: AxisNegative, Property: "late_sender", Detail: "sentinel"}}}
	blob, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"Case":{"schema":1`) {
		t.Fatalf("legacy value lacks the case: %s", blob)
	}
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	out, err := CheckCached(cs, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Puts != before.Puts {
		t.Fatalf("stats %+v -> %+v; want one hit, no miss, no write", before, after)
	}
	if out.Hash != old.Hash || out.Events != old.Events || out.Findings != old.Findings ||
		!reflect.DeepEqual(out.Violations, old.Violations) {
		t.Fatalf("replayed %+v, stored %+v", out, old)
	}
}
