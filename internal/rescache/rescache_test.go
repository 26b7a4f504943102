package rescache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustKey(t *testing.T, doc any) string {
	t.Helper()
	k, err := Key(doc)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t)
	key := mustKey(t, map[string]any{"kind": "test", "n": 1})
	val := []byte(`{"answer":42}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store served a hit")
	}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put", st)
	}
	// A second handle on the same directory sees the entry (cross-process
	// sharing is the whole point of the on-disk store).
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatal("fresh handle missed a persisted entry")
	}
}

func TestKeyIsDeterministicAndInputSensitive(t *testing.T) {
	type doc struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	a1 := mustKey(t, doc{Kind: "k", N: 1})
	a2 := mustKey(t, doc{Kind: "k", N: 1})
	b := mustKey(t, doc{Kind: "k", N: 2})
	if a1 != a2 {
		t.Fatalf("equal documents hashed differently: %s vs %s", a1, a2)
	}
	if a1 == b {
		t.Fatal("different documents collided")
	}
	if len(a1) != 64 || strings.ToLower(a1) != a1 {
		t.Fatalf("key is not lowercase sha256 hex: %q", a1)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := open(t)
	for _, bad := range []string{"", "short", strings.Repeat("Z", 64), "../../../../etc/passwd"} {
		if _, ok := s.Get(bad); ok {
			t.Fatalf("Get(%q) served a hit", bad)
		}
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted a non-content key", bad)
		}
	}
}

// rewriteEnv rewrites key's entry file with a modified environment — the
// on-disk state after an engine version bump (old binary wrote it, new
// binary reads it).
func rewriteEnv(t *testing.T, s *Store, key string, mutate func(Env)) {
	t.Helper()
	path := s.objects.Path(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(blob, &e); err != nil {
		t.Fatal(err)
	}
	mutate(e.Env)
	out, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleEnvironmentNeverServed is the invalidation contract: an entry
// recorded under any other engine version or profile schema must be a
// miss, never a hit — a stale oracle verdict served as fresh would
// silently mask an engine behavior change.
func TestStaleEnvironmentNeverServed(t *testing.T) {
	mutations := map[string]func(Env){
		"engine_bump":   func(e Env) { e["engine"]++ },
		"schema_bump":   func(e Env) { e["profile/schema"]++ },
		"component_add": func(e Env) { e["engine/new"] = 1 },
		"component_del": func(e Env) { delete(e, "engine") },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			key := mustKey(t, map[string]string{"case": name})
			if err := s.Put(key, []byte(`"v"`)); err != nil {
				t.Fatal(err)
			}
			rewriteEnv(t, s, key, mutate)
			if _, ok := s.Get(key); ok {
				t.Fatal("stale-environment entry was served")
			}
			// GC must remove it.
			res, err := s.GC()
			if err != nil {
				t.Fatal(err)
			}
			if res.Scanned != 1 || res.Removed != 1 || res.Kept != 0 {
				t.Fatalf("GC = %+v; want 1 scanned, 1 removed", res)
			}
			if _, err := os.Stat(s.objects.Path(key)); !os.IsNotExist(err) {
				t.Fatal("GC left the stale entry file behind")
			}
		})
	}
}

func TestCorruptEntriesAreMissesAndGCd(t *testing.T) {
	s := open(t)
	good := mustKey(t, "good")
	if err := s.Put(good, []byte(`1`)); err != nil {
		t.Fatal(err)
	}

	// Truncated JSON.
	trunc := mustKey(t, "trunc")
	if err := s.Put(trunc, []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objects.Path(trunc), []byte(`{"schema":1,`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Entry whose key echo does not match its file name (renamed or
	// hand-edited).
	miskeyed := mustKey(t, "miskeyed")
	if err := s.Put(miskeyed, []byte(`3`)); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(s.objects.Path(good))
	if err := os.WriteFile(s.objects.Path(miskeyed), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Orphaned temp file from a crashed writer.
	tempOrphan := filepath.Join(filepath.Dir(s.objects.Path(good)), "."+good[:12]+"-orphan")
	if err := os.WriteFile(tempOrphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A foreign file that names no entry.
	junk := filepath.Join(filepath.Dir(s.objects.Path(good)), "junk.json")
	if err := os.WriteFile(junk, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(trunc); ok {
		t.Fatal("truncated entry served")
	}
	if _, ok := s.Get(miskeyed); ok {
		t.Fatal("mis-keyed entry served")
	}
	if _, ok := s.Get(good); !ok {
		t.Fatal("good entry lost")
	}

	res, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 4 || res.Removed != 3 || res.Kept != 1 {
		t.Fatalf("GC = %+v; want 4 scanned, 3 removed, 1 kept", res)
	}
	for _, left := range []string{tempOrphan, junk} {
		if _, err := os.Stat(left); !os.IsNotExist(err) {
			t.Fatalf("GC left %s", filepath.Base(left))
		}
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}

func TestPutOverwritesCorruptEntry(t *testing.T) {
	s := open(t)
	key := mustKey(t, "overwrite")
	if err := s.Put(key, []byte(`"first"`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objects.Path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("garbage entry served")
	}
	if err := s.Put(key, []byte(`"second"`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != `"second"` {
		t.Fatalf("after overwrite: %q, %v", got, ok)
	}
}

func TestOpenEmptyDirUsesDefault(t *testing.T) {
	// Open("") must select DefaultDir; run inside a temp working directory
	// so the test never writes into the repository.
	t.Chdir(t.TempDir())
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != DefaultDir {
		t.Fatalf("Dir = %q; want %q", s.Dir(), DefaultDir)
	}
}

func TestGCOnEmptyStore(t *testing.T) {
	s := open(t)
	res, err := s.GC()
	if err != nil || res.Scanned != 0 {
		t.Fatalf("GC on empty store = %+v, %v", res, err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("Len on empty store = %d, %v", n, err)
	}
}

// TestEntryBytesMatchJSONMarshal: Put writes exactly the bytes
// json.Marshal(&Entry) writes, the form every earlier binary wrote, so
// caches filled before the envelope was hand-built stay warm; Get serves
// such a file, including one larger than its first read.
func TestEntryBytesMatchJSONMarshal(t *testing.T) {
	s := open(t)
	big := `{"Violations":[` + strings.Repeat(`{"axis":"positive","detail":"wait 0.0123 s, want 0.0456 s"},`, 200) + `{}]}`
	for i, val := range []string{
		`{"answer":42}`,
		" { \"a\" : [1, 2] ,\n \"h\":\"<&>\\u2028\" } ",
		`null`,
		`1e-7`,
		big,
		"",
	} {
		key := mustKey(t, i)
		raw := json.RawMessage(val)
		if val == "" {
			raw = nil // Put(key, nil) stores null, as json.Marshal does
		}
		if err := s.Put(key, raw); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&Entry{Schema: EntrySchema, Key: key, Env: CurrentEnv(), Value: raw})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.objects.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("value %d: Put wrote\n%s\njson.Marshal(&Entry) writes\n%s", i, got, want)
		}
		if err := os.WriteFile(s.objects.Path(key), want, 0o644); err != nil {
			t.Fatal(err)
		}
		wantVal, _ := json.Marshal(raw)
		if v, ok := s.Get(key); !ok || !bytes.Equal(v, wantVal) {
			t.Fatalf("value %d: Get = %q, %v; want %q", i, v, ok, wantVal)
		}
	}
	if err := s.Put(mustKey(t, "bad"), []byte(`{"unterminated":`)); err == nil {
		t.Fatal("Put accepted an invalid JSON value")
	}
}

// TestNonCanonicalEntriesMiss: a file that is not byte for byte what Put
// writes for its key in this environment is a miss, GC deletes it, and
// the next campaign.Cached call recomputes, overwrites it and then hits.
func TestNonCanonicalEntriesMiss(t *testing.T) {
	variants := map[string]func(key string, canon []byte) []byte{
		"other_env": func(key string, _ []byte) []byte {
			env := CurrentEnv()
			env["engine"]++
			b, _ := json.Marshal(&Entry{Schema: EntrySchema, Key: key, Env: env, Value: json.RawMessage(`7`)})
			return b
		},
		"key_echo": func(key string, canon []byte) []byte {
			return bytes.Replace(canon, []byte(key), []byte(mustKey(t, "other")), 1)
		},
		"reformatted": func(_ string, canon []byte) []byte {
			var b bytes.Buffer
			json.Indent(&b, canon, "", " ")
			return b.Bytes()
		},
		"trailing_newline": func(_ string, canon []byte) []byte { return append(canon, '\n') },
		"truncated":        func(_ string, canon []byte) []byte { return canon[:len(canon)-1] },
		"empty_value": func(key string, canon []byte) []byte {
			return append(bytes.TrimSuffix(canon, []byte(`7}`)), '}')
		},
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			key := mustKey(t, name)
			calls := 0
			compute := func() (int, error) { calls++; return 7, nil }
			cached := func() {
				t.Helper()
				if v, err := campaign.Cached(s, key, compute); err != nil || v != 7 {
					t.Fatalf("Cached = %d, %v", v, err)
				}
			}
			cached()
			path := s.objects.Path(key)
			canon, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			write := func() {
				t.Helper()
				if err := os.WriteFile(path, mutate(key, bytes.Clone(canon)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write()
			if _, ok := s.Get(key); ok {
				t.Fatal("non-canonical entry served")
			}
			if n, err := s.Len(); err != nil || n != 0 {
				t.Fatalf("Len = %d, %v; want 0", n, err)
			}
			if res, err := s.GC(); err != nil || res.Removed != 1 {
				t.Fatalf("GC = %+v, %v; want the entry removed", res, err)
			}
			write()
			cached()
			if calls != 2 {
				t.Fatalf("compute ran %d times; want a recompute after the bad entry", calls)
			}
			if blob, _ := os.ReadFile(path); !bytes.Equal(blob, canon) {
				t.Fatalf("entry not overwritten: %q", blob)
			}
			cached()
			if calls != 2 {
				t.Fatal("the overwritten entry did not hit")
			}
		})
	}
}
