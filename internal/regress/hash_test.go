package regress

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidHash(t *testing.T) {
	good := strings.Repeat("0123456789abcdef", 4)
	tests := []struct {
		hash string
		want bool
	}{
		{good, true},
		{"", false},
		{good[:63], false},
		{good + "0", false},
		{strings.ToUpper(good), false},   // hashes are lowercase hex
		{strings.Repeat("g", 64), false}, // non-hex
		{"../../secret" + strings.Repeat("0", 52), false}, // traversal, right length
		{"../../secret", false},
	}
	for _, tc := range tests {
		if got := ValidHash(tc.hash); got != tc.want {
			t.Errorf("ValidHash(%q) = %v, want %v", tc.hash, got, tc.want)
		}
	}
}

// TestLookupRejectsNonHashNames plants a decoy file exactly where a
// traversal "hash" would land and checks Get/ObjectReader/SetBaseline
// refuse to touch it: only the 64-hex content-hash form may name an
// object.
func TestLookupRejectsNonHashNames(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	// A lookup that joined the hash into a path unchecked would resolve
	// ../../secret to dir/secret.json.
	secret := filepath.Join(dir, "secret.json")
	if err := os.WriteFile(secret, []byte(`{"planted": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"../../secret", "..", "", strings.Repeat("A", 64), "no-such-object"} {
		if _, err := store.Get(h); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Get(%q) = %v, want fs.ErrNotExist", h, err)
		}
		if f, err := store.ObjectReader(h); !errors.Is(err, fs.ErrNotExist) {
			if f != nil {
				f.Close()
			}
			t.Errorf("ObjectReader(%q) = %v, want fs.ErrNotExist", h, err)
		}
		if err := store.SetBaseline("exp", h); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("SetBaseline(%q) = %v, want fs.ErrNotExist", h, err)
		}
	}
}

// TestBaselineErrNoBaseline checks the sentinel a caller uses to tell
// "no baseline yet" apart from store I/O faults.
func TestBaselineErrNoBaseline(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Baseline("never-saved"); !errors.Is(err, ErrNoBaseline) {
		t.Errorf("Baseline on empty store = %v, want ErrNoBaseline", err)
	}
}
