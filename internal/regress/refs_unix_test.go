//go:build unix

package regress_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/regress"
)

// childStoreEnv names the store a re-executed test binary saves into; it
// is set only for the child process of TestSaveBaselineAcrossProcesses.
const childStoreEnv = "REGRESS_TEST_CHILD_STORE"

// saveShared saves the process's share of the stress profiles and
// returns their hashes.
func saveShared(t *testing.T, dir string, proc, saves int) []string {
	t.Helper()
	store, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, saves)
	for i := range hashes {
		if hashes[i], err = store.SaveBaseline(synthProfile("shared", float64(proc*saves+i+1)/1e4)); err != nil {
			t.Fatalf("process %d save %d: %v", proc, i, err)
		}
	}
	return hashes
}

// TestSaveBaselineAcrossProcesses is TestSaveBaselineAcrossHandles with a
// real second process: the test binary re-executes itself, and both
// processes save 200 baselines into one store at once.  Only the flock
// on refs.lock serializes them, so refs.json must still parse afterwards
// and its history must hold all 400 saves.
func TestSaveBaselineAcrossProcesses(t *testing.T) {
	const saves = 200
	if dir := os.Getenv(childStoreEnv); dir != "" {
		saveShared(t, dir, 1, saves)
		return
	}
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := regress.Open(dir); err != nil {
		t.Fatal(err)
	}
	child := exec.Command(os.Args[0], "-test.run=^TestSaveBaselineAcrossProcesses$")
	child.Env = append(os.Environ(), childStoreEnv+"="+dir)
	out := make(chan []byte, 1)
	var childErr error
	go func() {
		b, err := child.CombinedOutput()
		childErr = err
		out <- b
	}()
	own := saveShared(t, dir, 0, saves)
	if b := <-out; childErr != nil {
		t.Fatalf("child process: %v\n%s", childErr, b)
	}

	blob, err := os.ReadFile(filepath.Join(dir, "refs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var refs struct {
		History map[string][]string `json:"history"`
	}
	if err := json.Unmarshal(blob, &refs); err != nil {
		t.Fatalf("refs.json does not parse: %v", err)
	}
	hist := refs.History["shared"]
	if len(hist) != 2*saves {
		t.Fatalf("history has %d entries, want %d: updates were lost", len(hist), 2*saves)
	}
	listed := make(map[string]bool, len(hist))
	for _, hash := range hist {
		listed[hash] = true
	}
	for i := 0; i < saves; i++ {
		theirs, err := synthProfile("shared", float64(saves+i+1)/1e4).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if !listed[own[i]] || !listed[theirs] {
			t.Fatalf("save %d of a process is missing from history", i)
		}
	}
}
