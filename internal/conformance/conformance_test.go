package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
)

// quickOpt skips nothing: the determinism axis is part of the quick run.
var quickOpt = CheckOptions{}

// TestQuickConformance is the quick-mode fuzz run wired into `go test`:
// ≥ 50 seeded random composites, every axis checked (including the
// same-seed → same-profile-hash determinism axis inside Check).
func TestQuickConformance(t *testing.T) {
	const seeds = 60
	for seed := uint64(1); seed <= seeds; seed++ {
		cs := Generate(seed, Config{})
		out, err := Check(cs, quickOpt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range out.Violations {
			t.Errorf("seed %d (%s): %s", seed, cs, v)
		}
		if t.Failed() {
			min := Shrink(cs, quickOpt)
			blob, _ := MarshalCase(min)
			t.Fatalf("seed %d: shrunken reproducer:\n%s", seed, blob)
		}
	}
}

// TestGenerateDeterministic pins the generator: the same seed must yield
// a deeply equal case, and distinct seeds must not all collapse onto one
// shape.
func TestGenerateDeterministic(t *testing.T) {
	shapes := make(map[string]bool)
	for seed := uint64(1); seed <= 20; seed++ {
		a := Generate(seed, Config{})
		b := Generate(seed, Config{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid case: %v", seed, err)
		}
		shapes[a.String()] = true
	}
	if len(shapes) < 10 {
		t.Fatalf("20 seeds produced only %d distinct cases", len(shapes))
	}
}

// generateDigest pins Generate's draw sequence: the SHA-256 over the
// JSON of the cases drawn for seeds 1..5000 under the default config and
// under a fixed-shape, at-most-two-property config.  Any change to the
// RNG seeding, the pool order or the argument draws changes every case
// (and every result-cache key), so it must show up here.
const generateDigest = "ec6fa633e36e33b281bfce87fa74bbde6f7de1ee6682db96a883731fbb187741"

func TestGenerateDigest(t *testing.T) {
	// The digest covers the built-in registry only; ASL tests register
	// scenarios and must have unregistered them again.
	for _, spec := range core.All() {
		if spec.ASL != "" {
			t.Fatalf("scenario %q still registered; the digest covers built-ins only", spec.Name)
		}
	}
	h := sha256.New()
	for s := uint64(1); s <= 5000; s++ {
		for _, cfg := range []Config{{}, {Procs: []int{16}, MaxProps: 2}} {
			blob, err := json.Marshal(Generate(s, cfg))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(blob)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generateDigest {
		t.Fatalf("Generate digest %s, want %s", got, generateDigest)
	}
}

// highSeedDigest pins Generate for the seeds campaigns actually draw
// beyond TestGenerateDigest's 1..5000: the benchmark's case bases (10⁶
// and up, one million apart) and its per-client offsets, seeds around
// 2³¹−1 and its multiples (where the source's seed reduction wraps), and
// seeds at and above 2⁶³ (negative as int64).  The constant was computed
// with math/rand's own source, so a replica that drifts fails here.
const highSeedDigest = "7f18d11f57a574dc41142af204172d6aa392b09ee22b92a23d98fbd01e580ecc"

// highSeeds lists the seeds highSeedDigest covers.
func highSeeds() []uint64 {
	const p = 1<<31 - 1
	var seeds []uint64
	span := func(from uint64, n int) {
		for i := 0; i < n; i++ {
			seeds = append(seeds, from+uint64(i))
		}
	}
	span(1_000_000, 500)                  // atsfuzz -start 1000000
	span(2_000_000, 300)                  // caseBase(1)
	span(302_000_000, 300)                // caseBase(301)
	span(302_000_000+1000+3*400_000, 100) // a client's range in atsd-mixed
	span(999_000_000, 100)                // caseBase(998)
	span(1_000_000_000_000, 100)          // caseBase(999999)
	span(p-150, 300)                      // around 2³¹−1
	span(2*p-50, 100)                     // around 2(2³¹−1)
	span(1<<32-50, 100)                   // around 2³²
	span(1000*p-50, 100)                  // a large multiple
	span(1<<63-100, 200)                  // across 2⁶³
	span(1<<64-200, 200)                  // up to the largest seed
	span(1<<64-1_000_000*p-50, 100)       // around −10⁶(2³¹−1)
	return seeds
}

func TestGenerateDigestHighSeeds(t *testing.T) {
	h := sha256.New()
	for _, s := range highSeeds() {
		for _, cfg := range []Config{{}, {Procs: []int{16}, MaxProps: 2}} {
			blob, err := json.Marshal(Generate(s, cfg))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(blob)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != highSeedDigest {
		t.Fatalf("Generate digest over high seeds %s, want %s", got, highSeedDigest)
	}
}

// TestGenerateConcurrent: generators are pooled across goroutines, so
// concurrent draws (the campaign pool generates on every worker) must
// each equal the sequential draw for their seed.
func TestGenerateConcurrent(t *testing.T) {
	const seeds, workers = 400, 4
	want := make([]Case, seeds)
	for i := range want {
		want[i] = Generate(uint64(i+1), Config{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < seeds; i += workers {
				if got := Generate(uint64(i+1), Config{}); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("seed %d: concurrent draw %v, sequential %v", i+1, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDefaultPoolFollowsRegistry: the default pool is cached between
// registry changes, so a spec registered after the first Generate must
// join it and leave it again on Unregister — unless its detection is an
// info metric, which keeps it out like dominated_by_communication.
func TestDefaultPoolFollowsRegistry(t *testing.T) {
	Generate(1, Config{}) // the pool is built before the registry changes
	const name, info = "zz_pool_probe", "zz_pool_info_probe"
	for _, spec := range []*core.Spec{
		{Name: name, Paradigm: core.ParadigmMPI, Run: func(core.Env, core.Args) {}},
		{Name: info, Paradigm: core.ParadigmMPI, Run: func(core.Env, core.Args) {},
			Detects: analyzer.PropMPITimeFraction},
	} {
		if err := core.Register(spec); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { core.Unregister(spec.Name) }) // a no-op once unregistered
	}
	for _, out := range []string{info, "dominated_by_communication"} {
		if slices.Contains(DefaultPool(), out) {
			t.Errorf("%s detects an info metric but is in DefaultPool", out)
		}
	}
	drawn := func() bool {
		for s := uint64(1); s <= 200; s++ {
			for _, p := range Generate(s, Config{}).Props {
				if p.Name == name {
					return true
				}
			}
		}
		return false
	}
	if !slices.Contains(DefaultPool(), name) {
		t.Fatalf("%s missing from DefaultPool after Register", name)
	}
	if !drawn() {
		t.Fatalf("no Generate draw in 200 seeds includes %s", name)
	}
	core.Unregister(name)
	if slices.Contains(DefaultPool(), name) {
		t.Fatalf("%s still in DefaultPool after Unregister", name)
	}
	if drawn() {
		t.Fatalf("Generate still draws %s after Unregister", name)
	}
}

// defaultsCase builds a composite from registered defaults.
func defaultsCase(procs, threads int, names ...string) Case {
	cs := Case{Schema: CaseSchema, Procs: procs, Threads: threads, Threshold: 0.005}
	for _, name := range names {
		spec, ok := core.Get(name)
		if !ok {
			panic("unknown property " + name)
		}
		a := spec.Defaults()
		cp := CaseProp{Name: name}
		if len(a.Float) > 0 {
			cp.Float = a.Float
		}
		if len(a.Int) > 0 {
			cp.Int = a.Int
		}
		if len(a.Distr) > 0 {
			cp.Distr = a.Distr
		}
		cs.Props = append(cs.Props, cp)
	}
	return cs
}

// TestShrinkerMinimizes injects a deliberate analyzer defect — the
// wait_at_mpi_barrier pattern is dropped from the report — and asserts
// the shrinker reduces the resulting 3-property failure to the single
// property exposing the defect, with smaller parameters.
func TestShrinkerMinimizes(t *testing.T) {
	orig := defaultsCase(4, 1, "late_sender", "imbalance_at_mpi_barrier", "early_reduce")
	opt := CheckOptions{SkipDeterminism: true, DropProperty: analyzer.PropWaitAtBarrier}

	out, err := Check(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("fault injection did not make the composite fail")
	}

	min := Shrink(orig, opt)
	if len(min.Props) >= len(orig.Props) {
		t.Fatalf("shrinker did not reduce property count: %d -> %d", len(orig.Props), len(min.Props))
	}
	if len(min.Props) != 1 || min.Props[0].Name != "imbalance_at_mpi_barrier" {
		t.Fatalf("expected minimal reproducer [imbalance_at_mpi_barrier], got %s", min)
	}
	if r := min.Props[0].Int["r"]; r >= orig.Props[1].Int["r"] {
		t.Fatalf("shrinker did not reduce repetitions: %d -> %d", orig.Props[1].Int["r"], r)
	}
	// The minimized case must still reproduce the failure...
	mout, err := Check(min, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mout.OK() {
		t.Fatal("minimized case no longer fails under the injected defect")
	}
	// ...and pass against the healthy analyzer.
	hout, err := Check(min, CheckOptions{SkipDeterminism: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hout.OK() {
		t.Fatalf("minimized case fails without the defect: %v", hout.Violations)
	}
}

// TestCorpusReplay replays every committed corpus case through the full
// oracle — the same files `atsfuzz replay` consumes.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("..", "..", "testdata", "conformance-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("committed corpus has %d cases, want >= 10", len(entries))
	}
	for _, e := range entries {
		out, err := Check(e.Case, quickOpt)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, v := range out.Violations {
			t.Errorf("%s (%s): %s", e.Name, e.Case, v)
		}
	}
}

// TestCorpusRoundTrip pins the case wire format.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cs := Generate(7, Config{})
	path := filepath.Join(dir, "case.json")
	if err := WriteCase(path, cs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs, got) {
		t.Fatalf("case changed across write/read:\n%+v\n%+v", cs, got)
	}
}

// TestValidateErrors covers the ill-formed-case paths.
func TestValidateErrors(t *testing.T) {
	good := Generate(1, Config{})
	tests := []struct {
		name   string
		mutate func(*Case)
	}{
		{"wrong schema", func(c *Case) { c.Schema = 99 }},
		{"zero procs", func(c *Case) { c.Procs = 0 }},
		{"zero threads", func(c *Case) { c.Threads = 0 }},
		{"no props", func(c *Case) { c.Props = nil }},
		{"unknown property", func(c *Case) { c.Props[0].Name = "no_such_property" }},
		{"missing args", func(c *Case) {
			c.Props[0].Float, c.Props[0].Int, c.Props[0].Distr = nil, nil, nil
		}},
	}
	for _, tt := range tests {
		cs := good.clone()
		tt.mutate(&cs)
		if err := cs.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the case", tt.name)
		}
		if _, err := Check(cs, quickOpt); err == nil {
			t.Errorf("%s: Check accepted the case", tt.name)
		}
	}
	bad := good.clone()
	for k, ds := range bad.Props[0].Distr {
		ds.Name = "no_such_distribution"
		bad.Props[0].Distr[k] = ds
	}
	if len(bad.Props[0].Distr) > 0 {
		if err := bad.Validate(); err == nil {
			t.Error("unresolvable distribution: Validate accepted the case")
		}
	}
}

// FuzzConformance is the native-fuzzing entry point over seeds: any seed
// the engine can generate must satisfy all three axes.  Run long sessions
// with `go test -fuzz FuzzConformance ./internal/conformance`.
func FuzzConformance(f *testing.F) {
	for _, seed := range []uint64{1, 42, 1 << 32} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cs := Generate(seed, Config{})
		out, err := Check(cs, CheckOptions{SkipDeterminism: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.OK() {
			min := Shrink(cs, CheckOptions{SkipDeterminism: true})
			blob, _ := MarshalCase(min)
			t.Fatalf("seed %d (%s): %v\nshrunken reproducer:\n%s", seed, cs, out.Violations, blob)
		}
	})
}

// FuzzCaseJSON hardens the replay path: arbitrary bytes must decode or
// error, never panic, and anything that validates must run.
func FuzzCaseJSON(f *testing.F) {
	blob, err := MarshalCase(Generate(1, Config{MaxProps: 1, MinProps: 1}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cs Case
		if err := json.Unmarshal(data, &cs); err != nil {
			return
		}
		_ = cs.Validate()
	})
}
