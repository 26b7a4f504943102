// Package rescache is an on-disk, content-addressed memoization layer
// for analysis and conformance results: the piece that makes repeated
// sweeps free.  A fuzzing campaign or a calibration pass recomputes
// byte-identical (case, perturbation) work on every invocation; rescache
// stores each such result once, keyed by a content hash over the inputs
// the result depends on — the full case, the perturbation profile, the
// oracle options — so a warm run skips run+trace+analyze entirely while
// remaining byte-identical to a cold one (the cached value IS the cold
// value, replayed).
//
// Entries are immutable JSON objects in the content-addressed layout of
// package cas (objects/<first-two-hex>/<key>.json, written atomically,
// keys validated before ever touching a path).  An entry holds its
// schema, its key, the environment it was computed under (CurrentEnv:
// the engine version and the profile schema) and the result alone: the
// inputs are what the key hashes, and a caller looking a result up
// already holds them, so a conformance check's entry stores only the
// verdict (profile hash, event and finding counts, violations), not the
// case.
//
// The envelope is byte-exact: Put writes
// {"schema":1,"key":K,"env":E,"value":V} with no whitespace, the bytes
// json.Marshal(&Entry) writes, and Get serves V only from a file that
// starts with exactly that prefix for the key looked up and the running
// binary's environment and ends with the closing brace, so a hit costs
// one open and one read into a stack buffer and no decode.  Anything
// else (an entry recorded under another environment, a wrong key echo,
// a reformatted or truncated file) reads as a miss: the caller
// recomputes, the next Put overwrites the entry, and GC deletes it.
//
// Invalidation rules: the environment is the single place the versions
// of the machinery enter — keys carry none — and it is the *full* set
// of versioned components, not just the one the entry used: bumping the
// engine version or the profile schema invalidates every entry.  That is
// deliberately conservative: correctness of a memoized oracle verdict is
// worth a cold sweep, and the versions move rarely (see the bump rules
// in internal/mpi/engine.go).
//
// A Store is safe for concurrent use by multiple goroutines and by
// multiple processes sharing one directory (concurrent atsfuzz and
// atsbench runs): entries are immutable, content-addressed, and written
// atomically, so concurrent writers of the same key race benignly.
package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/cas"
	"repro/internal/mpi"
	"repro/internal/profile"
)

// DefaultDir is the conventional cache location inside a repository,
// next to the regression store.
const DefaultDir = ".ats/rescache"

// EntrySchema identifies the on-disk entry format.
const EntrySchema = 1

// Env is the versioned-component environment an entry was computed
// under.  Entries are served only while the recorded environment matches
// CurrentEnv exactly.
type Env map[string]int

// CurrentEnv returns the running binary's environment: the execution
// engine version plus the profile wire schema.
func CurrentEnv() Env {
	return Env{
		"engine":         mpi.EngineVersion,
		"profile/schema": profile.SchemaVersion,
	}
}

// envJSON is CurrentEnv as an entry records it (json.Marshal sorts the
// map's keys), built once: the versions are constants.  Read-only.
var envJSON, _ = json.Marshal(CurrentEnv())

// Entry is the on-disk form of one cached result.  Put and Get write and
// match its bytes directly (see entryPrefix); the type documents the
// format and decodes entries where a full decode is wanted.
type Entry struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Env    Env             `json:"env"`
	Value  json.RawMessage `json:"value"`
}

// Stats counts cache traffic since the store was opened.
type Stats struct {
	Hits, Misses, Puts int64
}

// Store is an on-disk result cache.  It implements campaign.Cache.
type Store struct {
	dir                string
	objects            cas.Dir
	hits, misses, puts atomic.Int64
}

// Open opens (creating if necessary) the cache rooted at dir.  An empty
// dir selects DefaultDir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir
	}
	objects, err := cas.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("rescache: open: %w", err)
	}
	return &Store{dir: dir, objects: objects}, nil
}

// Dir returns the cache root.
func (s *Store) Dir() string { return s.dir }

// Stats returns the hit/miss/put counters accumulated on this handle.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load()}
}

// prefixCap covers entryPrefix's length (about 140 bytes), so it is
// built without growing; readBuf is the stack buffer an entry is read
// into (a verdict entry is about 250 bytes, and a larger one grows it).
const (
	prefixCap = 192
	readBuf   = 1024
)

// entryPrefix appends the bytes that open every entry the running binary
// writes for key: {"schema":1,"key":"<key>","env":<env>,"value":.  An
// entry is this prefix, the compacted value and a closing brace, which
// are the bytes json.Marshal(&Entry) writes.  Put writes exactly that,
// and Get serves only files that have exactly that form.
func entryPrefix(dst []byte, key string) []byte {
	dst = append(dst, `{"schema":`...)
	dst = strconv.AppendInt(dst, EntrySchema, 10)
	dst = append(dst, `,"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","env":`...)
	dst = append(dst, envJSON...)
	return append(dst, `,"value":`...)
}

// Get returns the cached value for key, or ok=false on a miss.  Absent
// files, entries recorded under another environment, key echoes that
// do not match (a corrupted or hand-edited file) and any file that is
// not byte for byte what Put writes (truncated, reformatted) all count
// as misses: the caller recomputes and the subsequent Put overwrites
// the bad entry.
func (s *Store) Get(key string) ([]byte, bool) {
	var buf [readBuf]byte
	if v, ok := s.value(key, buf[:0]); ok {
		s.hits.Add(1)
		return bytes.Clone(v), true
	}
	s.misses.Add(1)
	return nil, false
}

// value reads key's entry into buf and returns its value, the bytes
// between entryPrefix(key) and the final closing brace, if the file is
// exactly an entry the running binary would write for key.
func (s *Store) value(key string, buf []byte) ([]byte, bool) {
	blob, err := s.objects.ReadInto(key, buf)
	if err != nil {
		return nil, false
	}
	var pre [prefixCap]byte
	prefix := entryPrefix(pre[:0], key)
	if len(blob) < len(prefix)+2 || !bytes.HasPrefix(blob, prefix) || blob[len(blob)-1] != '}' {
		return nil, false
	}
	return blob[len(prefix) : len(blob)-1], true
}

// servable reports whether Get would serve key's entry.
func (s *Store) servable(key string) bool {
	var buf [readBuf]byte
	_, ok := s.value(key, buf[:0])
	return ok
}

// Put stores value under key, stamped with the current environment.  The
// value is compacted as json.Marshal compacts a json.RawMessage, and an
// invalid one is refused.  The write is atomic, so a crashed writer never
// leaves a truncated entry, and concurrent writers of the same key, equal
// by content addressing, race benignly.
func (s *Store) Put(key string, value []byte) error {
	if !cas.ValidKey(key) {
		return fmt.Errorf("rescache: put %q: not a content key", key)
	}
	v, err := json.Marshal(json.RawMessage(value))
	if err == nil {
		blob := append(append(entryPrefix(make([]byte, 0, prefixCap+len(v)+1), key), v...), '}')
		err = s.objects.Write(key, blob)
	}
	if err != nil {
		return fmt.Errorf("rescache: put %s: %w", key[:12], err)
	}
	s.puts.Add(1)
	return nil
}

// GCResult summarizes one GC pass.
type GCResult struct {
	// Scanned is the number of entry files examined.
	Scanned int
	// Removed counts entries deleted: stale environment, wrong schema or
	// key echo, or not byte for byte what Put writes.
	Removed int
	// Kept counts entries still valid for the running binary.
	Kept int
}

// GC walks the cache and deletes every entry the running binary would
// refuse to serve: entries recorded under a different engine version or
// profile schema, and corrupt, truncated, mis-keyed or reformatted
// files.  Orphaned temp files from crashed writers are removed too.
func (s *Store) GC() (GCResult, error) {
	scanned, removed, err := s.objects.Sweep(s.servable)
	res := GCResult{Scanned: scanned, Removed: removed, Kept: scanned - removed}
	if err != nil {
		return res, fmt.Errorf("rescache: gc: %w", err)
	}
	return res, nil
}

// Len counts the valid, currently servable entries in the store (a full
// walk; for stats and smoke tests, not hot paths).
func (s *Store) Len() (int, error) {
	n := 0
	err := s.objects.Walk(func(key string) error {
		if s.servable(key) {
			n++
		}
		return nil
	})
	return n, err
}

// Key derives the content-addressed cache key for any JSON-marshalable
// key document: the SHA-256 of its canonical encoding (Go's json.Marshal
// sorts map keys and preserves struct field order, so equal documents
// hash equally across processes and runs).  Callers must include every
// input the cached result depends on in the document; Key itself adds
// nothing.  The versions of the machinery stay out of it: the store
// stamps them on every entry (CurrentEnv).
func Key(doc any) (string, error) {
	blob, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("rescache: key: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
