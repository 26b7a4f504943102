package experiments

// Result-cache wiring for experiment sweeps, mirroring
// conformance.SetResultCache: CLIs install the store once and every
// memoizable sweep (currently the perturbed negative-correctness table)
// replays cached rows instead of re-running world→trace→analyze.
//
// Memoization is disabled automatically while a profile sink is
// installed (SetProfileSink): a cached row cannot re-emit the trace and
// report the sink needs, so baseline-capturing runs always execute for
// real.  Correctness degrades toward recomputation, never toward stale
// emission.

import (
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/rescache"
)

// resultCache is the installed process-wide store (nil: caching off).
var resultCache atomic.Pointer[rescache.Store]

// SetResultCache installs (or, with nil, removes) the process-wide
// result cache consulted by memoizable experiment sweeps.
func SetResultCache(s *rescache.Store) { resultCache.Store(s) }

// memoCache returns the installed store as a campaign.Cache, or nil —
// typed so a nil store never becomes a non-nil interface.
func memoCache() campaign.Cache {
	if s := resultCache.Load(); s != nil {
		return s
	}
	return nil
}

// perturbedKeyDoc is everything one perturbed negative-correctness cell
// depends on: the sweep coordinates, the shape, and the versions of the
// machinery that computed it (engine and profile schema — same
// invalidation discipline as the conformance keys).
type perturbedKeyDoc struct {
	Kind          string `json:"kind"`
	Level         int    `json:"level"`
	Program       string `json:"program"`
	Procs         int    `json:"procs"`
	Threads       int    `json:"threads"`
	PerturbSeed   uint64 `json:"perturb_seed"`
	EngineVersion int    `json:"engine_version"`
	ProfileSchema int    `json:"profile_schema"`
}

// perturbedCellKey derives the content key of one cell of the perturbed
// negative-correctness table.
func perturbedCellKey(level int, program string, procs, threads int, perturbSeed uint64) (string, error) {
	return rescache.Key(perturbedKeyDoc{
		Kind:          "experiments/perturbed_negative",
		Level:         level,
		Program:       program,
		Procs:         procs,
		Threads:       threads,
		PerturbSeed:   perturbSeed,
		EngineVersion: mpi.EngineVersion,
		ProfileSchema: profile.SchemaVersion,
	})
}
