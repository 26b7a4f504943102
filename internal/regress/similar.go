package regress

import (
	"fmt"
	"path/filepath"

	"repro/internal/profile"
	"repro/internal/similarity"
)

// similaritySubdir holds the persistent LSH index inside a store root,
// alongside objects/ and refs.json.
const similaritySubdir = "similarity"

func (s *Store) similarityDir() string { return filepath.Join(s.dir, similaritySubdir) }

// Objects enumerates every object hash in the store, sorted ascending.
// It reads directory names only — no object is opened — so walking a
// million-profile store stays cheap.
func (s *Store) Objects() ([]string, error) {
	var out []string
	if err := s.objects.Walk(func(hash string) error {
		out = append(out, hash)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("regress: list objects: %w", err)
	}
	return out, nil
}

// EnsureIndex returns the store's persistent similarity index, covering
// every stored object.  The first call on a Store handle opens the log
// (creating it, or rebuilding it when stamped by an incompatible
// schema), lists objects/ once, and backfills every object the log does
// not hold.  Later calls are cheap — O(entries appended since the last
// call), one os.Stat when there are none: this handle's own Puts index
// themselves as they land, and Refresh replays just the log tail other
// handles and processes appended.  Only a log replaced under the handle
// (another process rebuilt it) costs another listing and backfill.
//
// The log is created before the first listing, so an object Put by a
// process that saw no index yet is caught by that listing; every later
// Put, in any process, appends to the log and reaches Refresh.
func (s *Store) EnsureIndex() (*similarity.PersistentIndex, error) {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.sim == nil {
		idx, err := similarity.OpenIndex(s.similarityDir(), similarity.DefaultParams, profile.SchemaVersion)
		if err != nil {
			return nil, err
		}
		s.sim = idx
	} else if stale, err := s.sim.Refresh(); err != nil {
		return nil, err
	} else if stale {
		s.simFilled = false
	}
	if !s.simFilled {
		if err := s.backfill(s.sim); err != nil {
			return nil, err
		}
		s.simFilled = true
	}
	return s.sim, nil
}

// backfill indexes every stored object the index does not know yet.
func (s *Store) backfill(idx *similarity.PersistentIndex) error {
	hashes, err := s.Objects()
	if err != nil {
		return err
	}
	for _, hash := range hashes {
		if idx.Has(hash) {
			continue
		}
		p, err := s.Get(hash)
		if err != nil {
			return fmt.Errorf("regress: index backfill: %w", err)
		}
		if err := idx.Add(hash, similarity.Embed(p)); err != nil {
			return fmt.Errorf("regress: index backfill: %w", err)
		}
	}
	return nil
}

// openIndex returns the cached index handle, opening the log on first
// use.  The index geometry is stamped with the profile schema: bumping
// either discards and rebuilds.
func (s *Store) openIndex() (*similarity.PersistentIndex, error) {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.sim != nil {
		return s.sim, nil
	}
	idx, err := similarity.OpenIndex(s.similarityDir(), similarity.DefaultParams, profile.SchemaVersion)
	if err != nil {
		return nil, err
	}
	s.sim = idx
	return idx, nil
}

// indexAdd incrementally indexes a newly stored object — but only when
// the store has an index at all: plain `atsregress save` runs against
// index-less stores must not conjure one up.  EnsureIndex (the similar
// CLI/endpoint path) creates the index and backfills whatever Puts
// happened before it existed.
func (s *Store) indexAdd(hash string, p *profile.Profile) error {
	s.simMu.Lock()
	cached := s.sim
	s.simMu.Unlock()
	if cached == nil && !similarity.IndexExists(s.similarityDir()) {
		return nil
	}
	idx, err := s.openIndex()
	if err != nil {
		return err
	}
	return idx.Add(hash, similarity.Embed(p))
}

// Similar returns the k stored profiles most similar to the stored
// object with the given hash (the query itself is indexed, so its own
// entry — similarity 1 — leads the result).  The index is ensured
// first: opened, schema-checked, and backfilled to cover the store.
func (s *Store) Similar(hash string, k int) ([]similarity.Match, int, error) {
	p, err := s.Get(hash)
	if err != nil {
		return nil, 0, err
	}
	return s.SimilarProfile(p, k)
}

// SimilarProfile is Similar for a profile that need not be stored —
// the "which past run does this new regression look like?" query.
func (s *Store) SimilarProfile(p *profile.Profile, k int) ([]similarity.Match, int, error) {
	idx, err := s.EnsureIndex()
	if err != nil {
		return nil, 0, err
	}
	return idx.Query(similarity.Embed(p), k)
}
