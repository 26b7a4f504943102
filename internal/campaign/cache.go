package campaign

import "encoding/json"

// Cache is the minimal interface a campaign needs from a result cache:
// byte-blob get/put under a content-addressed key.  internal/rescache
// implements it with an on-disk store whose entries are stamped with the
// versions of the machinery that computed them; tests implement it with
// a map.  Implementations must be safe for concurrent use — Cached runs
// inside campaign jobs on the pool.
type Cache interface {
	// Get returns the cached value for key, or ok=false on a miss.
	Get(key string) ([]byte, bool)
	// Put stores value under key.
	Put(key string, value []byte) error
}

// Cached is content-addressed memoization of one computation: on a cache
// hit compute is skipped entirely and the decoded cached value returned;
// on a miss compute runs and its result is written through.  The
// contract that makes this safe is the same one the whole suite is
// built on — computations are pure functions of their inputs, and key
// must encode every input the result depends on (see rescache.Key; the
// store's environment stamp covers the versions of the machinery), so
// the cached value IS the value a cold run would have produced.
//
// Degradation is always toward recomputation, never toward wrong
// results: a nil cache or an empty key disables memoization; a corrupted
// or undecodable cached entry falls through to compute and is
// overwritten; a failed cache write is ignored (correctness never
// depends on the cache accepting writes — a read-only or full cache just
// stays cold).  Errors are not cached: failures of the environment (as
// opposed to deterministic oracle verdicts, which are ordinary values)
// must stay re-observable.  A panic in compute propagates unchanged and
// leaves no entry, so a campaign job confines it exactly as without
// Cached.
func Cached[T any](cache Cache, key string, compute func() (T, error)) (T, error) {
	if cache == nil || key == "" {
		return compute()
	}
	if blob, ok := cache.Get(key); ok {
		var v T
		if err := json.Unmarshal(blob, &v); err == nil {
			return v, nil
		}
		// Undecodable entry: recompute below; the Put overwrites it.
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	if blob, merr := json.Marshal(v); merr == nil {
		_ = cache.Put(key, blob) // best-effort write-through
	}
	return v, nil
}
