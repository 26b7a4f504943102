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
// case.  Get refuses to serve an entry whose recorded environment no
// longer matches the running binary, and GC deletes such stale entries.
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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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

// processEnv is CurrentEnv built once: the versions are constants, and Get
// compares against it on every lookup.  Read-only.
var processEnv = CurrentEnv()

// equal reports whether two environments record identical versions.
func (e Env) equal(o Env) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		ov, ok := o[k]
		if !ok || ov != v {
			return false
		}
	}
	return true
}

// Entry is the on-disk form of one cached result.
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

// Get returns the cached value for key, or ok=false on a miss.  Absent
// files, undecodable entries, key echoes that do not match (a corrupted
// or hand-edited file), and entries whose recorded environment differs
// from the running binary all count as misses — the caller recomputes
// and the subsequent Put overwrites the bad entry.
func (s *Store) Get(key string) ([]byte, bool) {
	e, ok := s.load(key)
	if !ok || !e.Env.equal(processEnv) {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.Value, true
}

// load reads and structurally validates one entry, without the
// environment check (GC needs to see stale entries).
func (s *Store) load(key string) (*Entry, bool) {
	blob, err := s.objects.Read(key)
	if err != nil {
		return nil, false
	}
	var e Entry
	if json.Unmarshal(blob, &e) != nil || e.Schema != EntrySchema || e.Key != key {
		return nil, false
	}
	return &e, true
}

// Put stores value under key, stamped with the current environment.  The
// write is atomic, so a crashed writer never leaves a truncated entry, and
// concurrent writers of the same key — equal by content addressing — race
// benignly.
func (s *Store) Put(key string, value []byte) error {
	if !cas.ValidKey(key) {
		return fmt.Errorf("rescache: put %q: not a content key", key)
	}
	e := Entry{Schema: EntrySchema, Key: key, Env: processEnv, Value: value}
	blob, err := json.Marshal(&e)
	if err == nil {
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
	// Removed counts entries deleted: stale environment, undecodable,
	// or wrong schema.
	Removed int
	// Kept counts entries still valid for the running binary.
	Kept int
}

// GC walks the cache and deletes every entry the running binary would
// refuse to serve: entries recorded under a different engine version or
// profile schema, and structurally invalid (corrupt, truncated,
// mis-keyed) files.  Orphaned temp files from crashed writers are
// removed too.
func (s *Store) GC() (GCResult, error) {
	scanned, removed, err := s.objects.Sweep(func(key string) bool {
		e, ok := s.load(key)
		return ok && e.Env.equal(processEnv)
	})
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
		if e, ok := s.load(key); ok && e.Env.equal(processEnv) {
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
