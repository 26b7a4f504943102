package conformance

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/asl"
	"repro/internal/core"
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

// checkKeyDoc is the document checkKey encodes by hand; json.Marshal of
// it, through rescache.Key, is the encoder's oracle.
type checkKeyDoc struct {
	Kind            string            `json:"kind"`
	Case            Case              `json:"case"`
	NoiseFloor      float64           `json:"noise_floor"`
	RelTol          float64           `json:"rel_tol"`
	AbsTol          float64           `json:"abs_tol"`
	SkipDeterminism bool              `json:"skip_determinism"`
	DropProperty    string            `json:"drop_property,omitempty"`
	Perturb         perturb.Profile   `json:"perturb"`
	Defs            map[string]string `json:"defs,omitempty"`
}

// oracleKey is the key checkKey must derive: the SHA-256 of the
// json.Marshal encoding of checkKeyDoc.
func oracleKey(cs Case, opt CheckOptions) (string, error) {
	opt = opt.withDefaults()
	return rescache.Key(checkKeyDoc{
		Kind:            "conformance/check",
		Case:            cs,
		NoiseFloor:      opt.NoiseFloor,
		RelTol:          opt.RelTol,
		AbsTol:          opt.AbsTol,
		SkipDeterminism: opt.SkipDeterminism,
		DropProperty:    opt.DropProperty,
		Perturb:         opt.Perturb,
		Defs:            caseDefs(cs),
	})
}

// sameKey fails unless checkKey and the json.Marshal oracle agree on
// (cs, opt): the same key, or both an error.
func sameKey(t *testing.T, cs Case, opt CheckOptions) {
	t.Helper()
	got, gerr := checkKey(cs, opt)
	want, werr := oracleKey(cs, opt)
	if got != want || (gerr != nil) != (werr != nil) {
		t.Fatalf("checkKey(%v, %+v) = %q, %v; json.Marshal oracle %q, %v", cs, opt, got, gerr, want, werr)
	}
}

// TestCheckKeyMatchesJSON holds the hand-appended key to the bytes
// json.Marshal writes for the same document, so every key, and every
// warm cache filled before the encoder existed, stays valid.
func TestCheckKeyMatchesJSON(t *testing.T) {
	for seed := uint64(1); seed <= 5000; seed++ {
		cs := Generate(seed, Config{})
		sameKey(t, cs, CheckOptions{})
		for level := 1; level <= perturb.MaxLevel; level++ {
			sameKey(t, cs, CheckOptions{Perturb: perturb.Level(seed, level)})
		}
		sameKey(t, cs, CheckOptions{DropProperty: cs.Props[0].Name, SkipDeterminism: true})
	}

	// A property compiled from an ASL scenario adds its source hash.
	name := registerProbe(t, conformanceScenario)
	scen := probeCase(name, 4)
	if len(caseDefs(scen)) == 0 {
		t.Fatal("the ASL probe case has no defs")
	}
	sameKey(t, scen, CheckOptions{})
	scen.Props = append(scen.Props, scen.Props[0], Generate(3, Config{}).Props[0])
	sameKey(t, scen, CheckOptions{})

	// Names json.Marshal escapes, the float formats at its thresholds,
	// omitted zero fields, and an empty versus a nil property list.
	odd := Case{
		Schema: CaseSchema, Seed: 1<<64 - 1, Procs: 3, Threads: 2, Threshold: 1e-7,
		Props: []CaseProp{{
			Name:  "<late&sender>",
			Float: map[string]float64{"\u2028": 1e21, "é": -1e-7, "b\"q": 5e-324, "a": 123456789.125, "z": -0.0},
			Int:   map[string]int{"\x01": -7, "n": 1 << 40},
			Distr: map[string]core.DistrSpec{
				"w": {Name: "same", Low: 0},
				"v": {Name: "peak\\", Low: 1e-6, High: 9.99e-7, Med: 1e20, N: 3},
			},
		}, {Name: "\xff\u2029"}},
	}
	for _, opt := range []CheckOptions{
		{},
		{NoiseFloor: 1e-300, RelTol: 1e300, AbsTol: 0.1 + 0.2, DropProperty: "a<b>&\u2028"},
		{Perturb: perturb.Profile{Level: -1, Seed: 1 << 63, SkewMax: 1e-6, MsgJitter: 1e21, NoiseBurst: 999999999999999999999}},
	} {
		sameKey(t, odd, opt)
	}
	for _, c := range []string{"<", ">", "&", `"`, `\\`, "\x01", "\x7f", "\u2028", "\u2029", "é", "\xff"} {
		sameKey(t, odd, CheckOptions{DropProperty: "p" + c + "q"})
	}
	odd.Props = []CaseProp{}
	sameKey(t, odd, CheckOptions{})
	odd.Props = nil
	sameKey(t, odd, CheckOptions{})

	// NaN and infinities have no JSON encoding: both encoders refuse.
	nan := Generate(1, Config{})
	nan.Threshold = math.NaN()
	if _, err := checkKey(nan, CheckOptions{}); err == nil {
		t.Fatal("checkKey encoded a NaN threshold")
	}
	sameKey(t, nan, CheckOptions{})
	sameKey(t, Generate(2, Config{}), CheckOptions{Perturb: perturb.Profile{SkewMax: math.Inf(1)}})
	inf := Generate(2, Config{})
	inf.Props[0].Float = map[string]float64{"x": math.Inf(-1)}
	sameKey(t, inf, CheckOptions{})
}

// TestCheckCachedHitAllocs pins what a warm hit allocates: the key
// string, the open path, the value copy and the decoded verdict, about
// ten allocations (49 while the key went through json.Marshal and the
// entry through os.ReadFile and a full decode).
func TestCheckCachedHitAllocs(t *testing.T) {
	withCache(t)
	cs := Generate(11, Config{})
	if _, err := CheckCached(cs, CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	const budget = 12
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := CheckCached(cs, CheckOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per warm hit", allocs)
	if allocs > budget {
		t.Fatalf("a warm CheckCached hit allocates %.1f times, budget %d", allocs, budget)
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

// BenchmarkCheckCachedHit splits a warm CheckCached hit into its layers
// over 64 cached default cases: case generation (which the caller pays
// before the lookup), the key, the store read, the verdict decode and
// the whole hit on a held case.  The layers after Generate add up to
// Hit, up to the call overhead between them.
func BenchmarkCheckCachedHit(b *testing.B) {
	s, err := rescache.Open(filepath.Join(b.TempDir(), "rescache"))
	if err != nil {
		b.Fatal(err)
	}
	SetResultCache(s)
	defer SetResultCache(nil)
	const n = 64
	cases := make([]Case, n)
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range cases {
		cases[i] = Generate(uint64(i+1), Config{})
		if _, err := CheckCached(cases[i], CheckOptions{}); err != nil {
			b.Fatal(err)
		}
		if keys[i], err = checkKey(cases[i], CheckOptions{}); err != nil {
			b.Fatal(err)
		}
		var ok bool
		if vals[i], ok = s.Get(keys[i]); !ok {
			b.Fatalf("case %d missed after its write", i)
		}
	}
	b.Run("Generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Generate(uint64(i%n+1), Config{})
		}
	})
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := checkKey(cases[i%n], CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(keys[i%n]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var o Outcome
			if err := json.Unmarshal(vals[i%n], &o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CheckCached(cases[i%n], CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
