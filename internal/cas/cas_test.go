package cas

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func key(c string) string { return strings.Repeat(c, 64) }

func TestWriteReadWalk(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{key("b"), key("a"), key("0")} {
		if err := d.Write(k, []byte(k[:1])); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := d.ReadInto(key("a"), nil); err != nil || string(got) != "a" {
		t.Fatalf("ReadInto = %q, %v", got, err)
	}
	if !d.Has(key("b")) || d.Has(key("c")) {
		t.Fatal("Has disagrees with what was written")
	}
	// Litter a shard with a crashed writer's temp file and a foreign name.
	shard := filepath.Dir(d.Path(key("a")))
	for _, name := range []string{tempPrefix + key("a") + ".1.tmp", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(shard, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	if err := d.Walk(func(k string) error { keys = append(keys, k); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []string{key("0"), key("a"), key("b")}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("Walk = %v, want %v", keys, want)
	}
	// Sweep drops the temp file uncounted, the foreign file (seen as the
	// empty key) and every key keep rejects, in one pass.
	var seen []string
	scanned, removed, err := d.Sweep(func(k string) bool {
		seen = append(seen, k)
		return k == key("a")
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 4 || removed != 3 {
		t.Fatalf("Sweep scanned %d removed %d, want 4 and 3", scanned, removed)
	}
	if want := []string{key("0"), key("a"), "", key("b")}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("Sweep offered %q, want %q", seen, want)
	}
	files, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != key("a")+ext {
		t.Fatalf("shard after Sweep holds %v, want only the kept object", files)
	}
}

func TestInvalidKeysNeverTouchTheFilesystem(t *testing.T) {
	root := t.TempDir()
	d, err := Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "../../secret", key("A"), key("g"), key("a")[:63]} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
		if _, err := d.ReadInto(bad, nil); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("ReadInto(%q) = %v, want fs.ErrNotExist", bad, err)
		}
		if _, err := d.Open(bad); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Open(%q) = %v, want fs.ErrNotExist", bad, err)
		}
		if err := d.Write(bad, nil); err == nil {
			t.Errorf("Write(%q) accepted a non-content key", bad)
		}
	}
}

// TestReadIntoGrowsOnlyPastTheBuffer: an object that fits is read into
// the caller's buffer in place; one of exactly the buffer's size, and one
// larger than it, come back whole in a grown buffer.
func TestReadIntoGrowsOnlyPastTheBuffer(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf [64]byte
	for i, size := range []int{0, 1, 63, 64, 65, 64 + 512, 5000} {
		blob := []byte(strings.Repeat("x", size))
		k := key(string("0123456789abcdef"[i]))
		if err := d.Write(k, blob); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadInto(k, buf[:0])
		if err != nil || string(got) != string(blob) {
			t.Fatalf("size %d: ReadInto = %d bytes, %v", size, len(got), err)
		}
		if inPlace := size > 0 && &got[0] == &buf[0]; inPlace != (size > 0 && size < len(buf)) {
			t.Errorf("size %d: read in place = %v", size, inPlace)
		}
	}
	if _, err := d.ReadInto(key("e"), buf[:0]); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadInto of an absent object = %v, want fs.ErrNotExist", err)
	}
}
