package conformance

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/perturb"
)

// TestStreamedMatchesInMemory pins the streaming pipeline's equivalence
// claim directly: for every committed corpus case, at every perturbation
// level of the standard robustness sweep, the profile content hash of the
// streamed run (in-memory chunk spool + incremental analysis, trace never
// materialized) equals the in-memory run's.  Cases with legitimately
// nondeterministic wait attribution are skipped, as in Check.
func TestStreamedMatchesInMemory(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("..", "..", "testdata", "conformance-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if hasNondeterministicWaits(e.Case) {
			continue
		}
		for _, level := range DefaultLevels {
			prof := perturb.Level(e.Case.Seed, level)

			tr, err := runCase(e.Case, prof, caseBody(e.Case))
			if err != nil {
				t.Fatalf("%s level %d: in-memory run: %v", e.Name, level, err)
			}
			rep := analyzer.Analyze(tr, analyzer.Options{Threshold: e.Case.Threshold})
			want, err := caseHash(e.Case, tr, rep)
			if err != nil {
				t.Fatalf("%s level %d: %v", e.Name, level, err)
			}

			got, err := streamedCaseHash(e.Case, prof, caseBody(e.Case))
			if err != nil {
				t.Fatalf("%s level %d: streamed run: %v", e.Name, level, err)
			}
			if got != want {
				t.Errorf("%s level %d: streamed profile hash %s != in-memory %s",
					e.Name, level, got, want)
			}
		}
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
