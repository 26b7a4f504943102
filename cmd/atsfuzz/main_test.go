package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conformance"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunFixedSeed(t *testing.T) {
	code, out, errOut := runCmd(t, "run", "-seeds", "3", "-start", "1", "-v")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "checked 3 cases: 0 failing") {
		t.Fatalf("unexpected output: %s", out)
	}
	if strings.Count(out, "ok   ") != 3 {
		t.Fatalf("-v did not print every case: %s", out)
	}
}

// normalizeNondetHashes masks the profile hash on case lines whose
// property set contains a conformance.NondeterministicWaits property.
// Those hashes are scheduling-dependent by design — the engine skips the
// byte-identical determinism axis for them, and two *sequential* runs
// already disagree on them under a perturbed scheduler (e.g. -race) — so
// they say nothing about the parallel runner.
func normalizeNondetHashes(out string) string {
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		open, clos := strings.Index(ln, "["), strings.Index(ln, "]")
		if !strings.HasPrefix(strings.TrimSpace(ln), "ok ") || open < 0 || clos < open {
			continue
		}
		nondet := false
		for _, name := range strings.Fields(ln[open+1 : clos]) {
			if conformance.NondeterministicWaits[name] {
				nondet = true
				break
			}
		}
		if c := strings.LastIndex(ln, ", "); nondet && c >= 0 && strings.HasSuffix(ln, ")") {
			lines[i] = ln[:c] + ", <nondet>)"
		}
	}
	return strings.Join(lines, "\n")
}

// TestRunParallelOutputMatchesSequential asserts the campaign contract at
// the CLI surface: `atsfuzz run -j 8` must produce byte-identical output
// (same cases, same hashes, same failure set, same order) as `-j 1`, up to
// the hashes of cases the engine itself documents as nondeterministic.
func TestRunParallelOutputMatchesSequential(t *testing.T) {
	seeds := "120"
	if testing.Short() {
		seeds = "25"
	}
	outputs := make(map[string]string)
	for _, j := range []string{"1", "8"} {
		code, out, errOut := runCmd(t, "run", "-seeds", seeds, "-v", "-j", j)
		if code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", j, code, errOut)
		}
		if errOut != "" {
			t.Fatalf("-j %s: unexpected stderr:\n%s", j, errOut)
		}
		outputs[j] = normalizeNondetHashes(out)
	}
	if outputs["1"] != outputs["8"] {
		t.Fatalf("parallel output diverges from sequential:\n-j 1:\n%s\n-j 8:\n%s",
			outputs["1"], outputs["8"])
	}
}

func TestGenReplayCorpus(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCmd(t, "gen", "-seeds", "2", "-out", dir)
	if code != 0 {
		t.Fatalf("gen: exit %d\nstderr: %s", code, errOut)
	}
	if strings.Count(out, "wrote ") != 2 {
		t.Fatalf("gen output: %s", out)
	}

	cases, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(cases) != 2 {
		t.Fatalf("corpus files: %v (%v)", cases, err)
	}
	code, out, errOut = runCmd(t, append([]string{"replay"}, cases...)...)
	if code != 0 {
		t.Fatalf("replay: exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}

	code, out, _ = runCmd(t, "corpus", "-dir", dir)
	if code != 0 || !strings.Contains(out, "2 cases") {
		t.Fatalf("corpus: exit %d, output: %s", code, out)
	}
}

func TestReplayRejectsBadCase(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":1,"procs":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCmd(t, "replay", bad)
	if code != 2 {
		t.Fatalf("replay of invalid case: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "invalid shape") {
		t.Fatalf("stderr: %s", errOut)
	}
}

// TestRunWarmCacheOutputIdentical: a warm `-cache` rerun must hit the
// cache (stderr reports it) while stdout stays byte-for-byte identical
// to the cold run.
func TestRunWarmCacheOutputIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"run", "-seeds", "10", "-v", "-cache", dir}

	code, cold, coldErr := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("cold: exit %d, stderr:\n%s", code, coldErr)
	}
	if !strings.Contains(coldErr, "rescache:") {
		t.Fatalf("cold run did not report cache stats on stderr:\n%s", coldErr)
	}

	code, warm, warmErr := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("warm: exit %d, stderr:\n%s", code, warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout diverges from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if !strings.Contains(warmErr, " 0 misses") || strings.Contains(warmErr, " 0 hits") {
		t.Fatalf("warm run was not fully served from cache:\n%s", warmErr)
	}
}

// TestRunPerturbedWarmCache: the robustness ladder caches per level and
// replays identically.
func TestRunPerturbedWarmCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"run", "-seeds", "4", "-v", "-perturb", "-cache", dir}
	code, cold, _ := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("cold perturbed run failed: %d", code)
	}
	code, warm, warmErr := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("warm perturbed run failed: %d", code)
	}
	if warm != cold {
		t.Fatalf("perturbed warm stdout diverges:\n%s\nvs\n%s", cold, warm)
	}
	if !strings.Contains(warmErr, " 0 misses") {
		t.Fatalf("perturbed warm run missed the cache:\n%s", warmErr)
	}
}

// TestCacheGCAndStats drives the maintenance subcommands end to end: a
// populated cache reports its entries, gc keeps valid ones, and a
// corrupted entry is collected.
func TestCacheGCAndStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if code, _, errOut := runCmd(t, "run", "-seeds", "3", "-cache", dir); code != 0 {
		t.Fatalf("populate: %s", errOut)
	}

	code, out, _ := runCmd(t, "cache", "stats", "-dir", dir)
	if code != 0 || !strings.Contains(out, "servable entries") {
		t.Fatalf("stats: exit %d, out: %s", code, out)
	}

	// Corrupt one entry file, then gc: it must be removed, the rest kept.
	entries, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written: %v (%v)", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCmd(t, "cache", "gc", "-dir", dir)
	if code != 0 {
		t.Fatalf("gc exit %d", code)
	}
	if !strings.Contains(out, "removed 1 stale") {
		t.Fatalf("gc did not collect the corrupted entry: %s", out)
	}

	// The sweep still works (and recomputes the collected entry).
	if code, _, _ := runCmd(t, "run", "-seeds", "3", "-cache", dir); code != 0 {
		t.Fatal("post-gc run failed")
	}
}

func TestUsageAndUnknown(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatal("no args should exit 2")
	}
	if code, _, _ := runCmd(t, "bogus"); code != 2 {
		t.Fatal("unknown command should exit 2")
	}
	if code, _, _ := runCmd(t, "cache"); code != 2 {
		t.Fatal("bare cache subcommand should exit 2")
	}
	if code, _, _ := runCmd(t, "cache", "bogus"); code != 2 {
		t.Fatal("unknown cache subcommand should exit 2")
	}
	if code, out, _ := runCmd(t, "help"); code != 0 || !strings.Contains(out, "usage:") {
		t.Fatal("help should print usage and exit 0")
	}
}
