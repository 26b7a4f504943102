// Package regress implements performance-regression tracking over the
// canonical profiles of package profile: an on-disk content-addressed
// store with a ref index (experiment name → baseline profile), and a
// comparison engine that diffs two profiles for severity drift,
// detection-set changes, and per-location outliers.
//
// The shape follows Perun's version-indexed performance profiles: blobs
// are immutable and named by content hash under objects/, while refs.json
// carries the mutable experiment → baseline mapping plus per-experiment
// history (newest first).
//
// Objects live in the content-addressed layout of package cas, sharded
// git-style as objects/<first-two-hex>/<hash>.json, so a store holding
// millions of profiles never concentrates them in one directory.
//
// A Store is safe for concurrent use by multiple goroutines (the analysis
// server runs many analyses against one store), and several handles or
// processes may share one directory: objects are immutable and written
// atomically, and the refs.json read-modify-write cycle is serialized by
// an exclusive flock on refs.lock (plus an in-process mutex).
package regress

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/cas"
	"repro/internal/profile"
	"repro/internal/similarity"
)

// DefaultStoreDir is the conventional store location inside a repository.
const DefaultStoreDir = ".ats/profiles"

// refsVersion identifies the refs.json format.
const refsVersion = 1

// refsFile is the mutable index of a store.
type refsFile struct {
	Version int `json:"version"`
	// Baselines maps experiment name → content hash of its baseline.
	Baselines map[string]string `json:"baselines"`
	// History maps experiment name → hashes ever saved, newest first.
	History map[string][]string `json:"history"`
}

// ErrNoBaseline is wrapped by Baseline when an experiment has no
// baseline ref; callers distinguish it from store I/O failures with
// errors.Is.
var ErrNoBaseline = errors.New("no baseline for experiment")

// ValidHash reports whether hash has the only form the store ever
// assigns: the 64 lowercase hex characters of profile.Hash.  Lookups
// reject anything else before building a path (see cas.ValidKey).
func ValidHash(hash string) bool { return cas.ValidKey(hash) }

// Store is an on-disk profile store.
type Store struct {
	dir     string
	objects cas.Dir
	// mu serializes this handle's refs.json read-modify-writes before they
	// contend for the cross-process refs lock (lockRefs).  Object writes
	// need no lock: they are content-addressed, atomic, and idempotent.
	mu sync.Mutex
	// simMu guards the lazily opened similarity-index handle and whether
	// it has been backfilled from a full object listing (similar.go).
	simMu     sync.Mutex
	sim       *similarity.PersistentIndex
	simFilled bool
}

// Open opens (creating if necessary) the store rooted at dir.  An empty
// dir selects DefaultStoreDir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultStoreDir
	}
	objects, err := cas.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("regress: open store: %w", err)
	}
	return &Store{dir: dir, objects: objects}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) refsPath() string { return filepath.Join(s.dir, "refs.json") }

// loadRefs reads the index; a missing file yields an empty index.
func (s *Store) loadRefs() (*refsFile, error) {
	refs := &refsFile{
		Version:   refsVersion,
		Baselines: make(map[string]string),
		History:   make(map[string][]string),
	}
	blob, err := os.ReadFile(s.refsPath())
	if os.IsNotExist(err) {
		return refs, nil
	}
	if err != nil {
		return nil, fmt.Errorf("regress: read refs: %w", err)
	}
	if err := json.Unmarshal(blob, refs); err != nil {
		return nil, fmt.Errorf("regress: parse refs: %w", err)
	}
	if refs.Version != refsVersion {
		return nil, fmt.Errorf("regress: refs version %d (want %d)", refs.Version, refsVersion)
	}
	if refs.Baselines == nil {
		refs.Baselines = make(map[string]string)
	}
	if refs.History == nil {
		refs.History = make(map[string][]string)
	}
	return refs, nil
}

// saveRefs writes the index atomically: a temp file unique to this call,
// then a rename, so a concurrent writer never shares (and truncates) our
// half-written temp file.
func (s *Store) saveRefs(refs *refsFile) error {
	blob, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return fmt.Errorf("regress: marshal refs: %w", err)
	}
	f, err := os.CreateTemp(s.dir, "refs.json.*.tmp")
	if err != nil {
		return fmt.Errorf("regress: write refs: %w", err)
	}
	_, err = f.Write(append(blob, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), s.refsPath())
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("regress: write refs: %w", err)
	}
	return nil
}

// lockRefs takes the store-wide refs lock: an exclusive flock on
// refs.lock, which serializes the refs read-modify-write across Store
// handles and processes (atsd beside a concurrent `atsregress save`).
// The returned func releases it.
func (s *Store) lockRefs() (func(), error) {
	f, err := os.OpenFile(filepath.Join(s.dir, "refs.lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("regress: lock refs: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("regress: lock refs: %w", err)
	}
	return func() { f.Close() }, nil // closing the descriptor drops the flock
}

// Put stores p as an immutable object and returns its content hash.  An
// object that already exists is left untouched (content addressing makes
// the write idempotent).  Put does not move any baseline ref.
func (s *Store) Put(p *profile.Profile) (string, error) {
	blob, hash, err := p.MarshalHash()
	if err != nil {
		return "", err
	}
	if s.objects.Has(hash) {
		return hash, nil
	}
	// The write is atomic, which the existence fast-path above depends on:
	// an interrupted Put must never leave a truncated object that later
	// calls would treat as already stored.
	if err := s.objects.Write(hash, blob); err != nil {
		return "", fmt.Errorf("regress: store object: %w", err)
	}
	// Keep the similarity index (when the store has one) covering every
	// object, incrementally: one O(1) append per new profile instead of
	// an O(store) rebuild per query.
	if err := s.indexAdd(hash, p); err != nil {
		return "", fmt.Errorf("regress: index object: %w", err)
	}
	return hash, nil
}

// Get loads the object with the given content hash.
func (s *Store) Get(hash string) (*profile.Profile, error) {
	f, err := s.ObjectReader(hash)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := profile.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("regress: object %s: %w", shortHash(hash), err)
	}
	return p, nil
}

// ObjectReader opens the raw canonical encoding of an object for
// streaming (the server's GET /v1/store/{hash} path), without decoding.
// A hash that is not a content hash reads as fs.ErrNotExist.
func (s *Store) ObjectReader(hash string) (*os.File, error) {
	f, err := s.objects.Open(hash)
	if err != nil {
		return nil, fmt.Errorf("regress: object %s: %w", shortHash(hash), err)
	}
	return f, nil
}

// SaveBaseline stores p and makes it the baseline for its experiment,
// pushing the previous baseline (if any) into the history.
func (s *Store) SaveBaseline(p *profile.Profile) (string, error) {
	hash, err := s.Put(p)
	if err != nil {
		return "", err
	}
	return hash, s.setBaseline(p.Experiment, hash)
}

// SetBaseline points an experiment's baseline at an object already in the
// store — the promote operation of the server's baseline API.  The object
// must exist.
func (s *Store) SetBaseline(experiment, hash string) error {
	if experiment == "" {
		return fmt.Errorf("regress: empty experiment name")
	}
	if _, err := s.Get(hash); err != nil {
		return err
	}
	return s.setBaseline(experiment, hash)
}

// setBaseline performs the refs read-modify-write under the store mutex
// and the cross-process refs lock.
func (s *Store) setBaseline(name, hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lockRefs()
	if err != nil {
		return err
	}
	defer unlock()
	refs, err := s.loadRefs()
	if err != nil {
		return err
	}
	if refs.Baselines[name] != hash {
		refs.Baselines[name] = hash
		refs.History[name] = append([]string{hash}, refs.History[name]...)
	}
	return s.saveRefs(refs)
}

// Baseline returns the baseline profile and hash for an experiment.
func (s *Store) Baseline(name string) (*profile.Profile, string, error) {
	refs, err := s.loadRefs()
	if err != nil {
		return nil, "", err
	}
	hash, err := refs.baseline(name)
	if err != nil {
		return nil, "", err
	}
	p, err := s.Get(hash)
	if err != nil {
		return nil, "", err
	}
	return p, hash, nil
}

// BaselineRef returns an experiment's baseline hash and its history (the
// hashes ever saved as its baseline, newest first) from one read of the
// refs.  It checks that the baseline
// object exists without decoding it, and fails on a missing baseline or
// object with Baseline's error.
func (s *Store) BaselineRef(name string) (string, []string, error) {
	refs, err := s.loadRefs()
	if err != nil {
		return "", nil, err
	}
	hash, err := refs.baseline(name)
	if err != nil {
		return "", nil, err
	}
	if err := s.objects.Stat(hash); err != nil {
		return "", nil, fmt.Errorf("regress: object %s: %w", shortHash(hash), err)
	}
	return hash, refs.History[name], nil
}

// baseline returns the baseline hash of an experiment.
func (refs *refsFile) baseline(name string) (string, error) {
	hash, ok := refs.Baselines[name]
	if !ok {
		return "", fmt.Errorf("regress: %w %q", ErrNoBaseline, name)
	}
	return hash, nil
}

// Entry summarizes one baseline for listings.
type Entry struct {
	Experiment string
	Hash       string
	// Versions is the history depth of the experiment.
	Versions int
	// Significant is the number of significant properties recorded.
	Significant int
	// TopProperty and TopSeverity identify the worst recorded finding.
	TopProperty string
	TopSeverity float64
	// Ranks and Threads echo the run shape.
	Ranks, Threads int
}

// List returns one entry per baseline, sorted by experiment name.
func (s *Store) List() ([]Entry, error) {
	refs, err := s.loadRefs()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(refs.Baselines))
	for name := range refs.Baselines {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Entry
	for _, name := range names {
		hash := refs.Baselines[name]
		e := Entry{Experiment: name, Hash: hash, Versions: len(refs.History[name])}
		p, err := s.Get(hash)
		if err != nil {
			return nil, err
		}
		e.Ranks, e.Threads = p.Run.Procs, p.Run.Threads
		for _, prop := range p.Significant() {
			e.Significant++
			if prop.Severity > e.TopSeverity {
				e.TopProperty, e.TopSeverity = prop.Name, prop.Severity
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// shortHash abbreviates a content hash for display.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
