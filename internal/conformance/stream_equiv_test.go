package conformance

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/perturb"
	"repro/internal/profile"
	"repro/internal/trace"
)

// analysisSeeds is how many generated cases the analysis tests below add
// to the committed corpus.
const analysisSeeds = 200

// analysisRun is one run the analysis tests analyze: a corpus case at one
// level of the robustness sweep, or a generated case.
type analysisRun struct {
	name string
	cs   Case
	prof perturb.Profile
}

// analysisRuns returns every corpus case at every level of
// DefaultLevels, then analysisSeeds generated cases, each at the level
// its seed picks.
func analysisRuns(t *testing.T) []analysisRun {
	entries, err := LoadCorpus(filepath.Join("..", "..", "testdata", "conformance-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	var runs []analysisRun
	for _, e := range entries {
		for _, level := range DefaultLevels {
			runs = append(runs, analysisRun{
				name: fmt.Sprintf("%s level %d", e.Name, level),
				cs:   e.Case, prof: perturb.Level(e.Case.Seed, level),
			})
		}
	}
	for seed := uint64(1); seed <= analysisSeeds; seed++ {
		level := DefaultLevels[seed%uint64(len(DefaultLevels))]
		runs = append(runs, analysisRun{
			name: fmt.Sprintf("seed %d level %d", seed, level),
			cs:   Generate(seed, Config{}), prof: perturb.Level(seed, level),
		})
	}
	return runs
}

// spoolHash analyzes a spooled run of cs the way Check does and returns
// its profile hash with the report it was built from.
func spoolHash(t *testing.T, cs Case, spool *trace.MemSpool) (string, *analyzer.Report) {
	t.Helper()
	p, rep, err := analyzeCase(cs, DefaultExperiment, spool)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h, rep
}

// TestStreamedMatchesInMemory pins the streaming pipeline's equivalence
// claim: for every run of analysisRuns, the profile hash of the streamed
// analysis of its spool (analyzeCase, which Check and CaseProfile use)
// equals the hash of the spool read back into a Trace and analyzed
// materialized (analyzer.Analyze + profile.FromRun).  Both sides read the
// same bytes, so a case whose runs vary (NondeterministicWaits) is
// compared too.
func TestStreamedMatchesInMemory(t *testing.T) {
	for _, r := range analysisRuns(t) {
		spool, err := trace.SpoolInMemory(caseRun(r.cs, r.prof, caseBody(r.cs)))
		if err != nil {
			t.Fatalf("%s: run: %v", r.name, err)
		}
		tr, err := trace.Read(io.NewSectionReader(spool, 0, spool.Size()))
		if err != nil {
			t.Fatalf("%s: read back: %v", r.name, err)
		}
		rep := analyzer.Analyze(tr, analyzer.Options{Threshold: r.cs.Threshold})
		p, err := profile.FromRun(DefaultExperiment, tr, rep, caseRunInfo(r.cs))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want, err := p.Hash()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got, _ := spoolHash(t, r.cs, spool); got != want {
			t.Errorf("%s: streamed profile hash %s != materialized %s", r.name, got, want)
		}
		spool.Release()
	}
}

// TestAnalyzeSpoolTwice: analyzing one spool twice gives one profile
// hash, from reports equal to the last bit.  Check analyzes each run
// once and compares reruns by their spool bytes, so the determinism axis
// no longer sees an analyzer that is itself nondeterministic; this test
// does, over every run of analysisRuns.  The reports are compared before
// the profile rounds them to the nanosecond, because a reduction summed
// in map order moves only the low bits of a wait.
func TestAnalyzeSpoolTwice(t *testing.T) {
	for _, r := range analysisRuns(t) {
		spool, err := trace.SpoolInMemory(caseRun(r.cs, r.prof, caseBody(r.cs)))
		if err != nil {
			t.Fatalf("%s: run: %v", r.name, err)
		}
		h1, rep1 := spoolHash(t, r.cs, spool)
		h2, rep2 := spoolHash(t, r.cs, spool)
		if h1 != h2 {
			t.Errorf("%s: two analyses of one spool hash %s and %s", r.name, h1, h2)
		} else if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: two analyses of one spool report different values", r.name)
		}
		spool.Release()
	}
}

// TestCheckSpoolsInMemory: the determinism rerun spools in memory.  TMPDIR
// names a directory that does not exist, so any temporary file the oracle
// tried to create would fail the check; the parent directory must stay
// empty, and the profile hashes must be the committed ones.
func TestCheckSpoolsInMemory(t *testing.T) {
	golden := map[uint64]string{
		1: "67f3d6b0f7411e3c983344b72b7cbbf301187709be1479bb8a1faf1981d92b43",
		2: "e92b3a225521ca3299829ff4779c7cd44c655996e10ae3d47626b3686db94ee3",
		3: "2042becaf13194e4886745531276ee4f412d2fe7f4609056eccacf819b368a41",
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", filepath.Join(dir, "tmp"))
	for seed, want := range golden {
		cs := Generate(seed, Config{})
		if hasNondeterministicWaits(cs) {
			t.Fatalf("seed %d: case skips the determinism axis; pick another seed", seed)
		}
		out, err := Check(cs, CheckOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.OK() {
			t.Errorf("seed %d: violations %v", seed, out.Violations)
		}
		if out.Hash != want {
			t.Errorf("seed %d: hash %s, want %s", seed, out.Hash, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("Check left %q in the temporary directory", e.Name())
	}
}
