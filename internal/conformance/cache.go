package conformance

// Result-cache wiring: the conformance oracle is a pure function of
// (case, options, engine version, perturbation profile), which makes its
// verdicts ideal content-addressed cache entries — a warm sweep replays
// each stored verdict (an Outcome: profile hash, event and finding
// counts, violations; the case itself is in the key, not the entry)
// byte-identically instead of re-running run+trace+analyze.  The cache
// is process-wide (SetResultCache), like campaign.SetDefaultWorkers:
// CLIs install it once from their -cache flag and every sweep layer —
// CheckCached, CheckRobust's per-level loop, noise-floor calibration,
// and the experiments' perturbed negative-correctness table — shares
// it.

import (
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/perturb"
	"repro/internal/rescache"
)

// resultCache is the installed process-wide store (nil: caching off).
var resultCache atomic.Pointer[rescache.Store]

// SetResultCache installs (or, with nil, removes) the process-wide
// result cache consulted by CheckCached, CheckRobust and
// CalibratedNoiseFloor.
func SetResultCache(s *rescache.Store) { resultCache.Store(s) }

// ResultCache returns the installed result cache, or nil.
func ResultCache() *rescache.Store { return resultCache.Load() }

// checkKeyDoc is everything a Check outcome depends on besides the
// versions of the machinery, which rescache stamps on every entry (see
// rescache.CurrentEnv): bumping mpi.EngineVersion or the profile schema
// makes every entry a miss.
type checkKeyDoc struct {
	Kind            string            `json:"kind"`
	Case            Case              `json:"case"`
	NoiseFloor      float64           `json:"noise_floor"`
	RelTol          float64           `json:"rel_tol"`
	AbsTol          float64           `json:"abs_tol"`
	SkipDeterminism bool              `json:"skip_determinism"`
	DropProperty    string            `json:"drop_property,omitempty"`
	Perturb         perturb.Profile   `json:"perturb"`
	Defs            map[string]string `json:"defs,omitempty"`
}

// caseDefs maps each case property compiled from an ASL scenario to the
// SHA-256 of its source, so redefining a scenario under the same name
// changes the key.  Built-in properties are pinned by the environment
// stamp and add nothing: their cases keep their keys.
func caseDefs(cs Case) map[string]string {
	var defs map[string]string
	for _, p := range cs.Props {
		spec, ok := core.Get(p.Name)
		if !ok || spec.ASL == "" {
			continue
		}
		if defs == nil {
			defs = make(map[string]string)
		}
		sum := sha256.Sum256([]byte(spec.ASL))
		defs[p.Name] = hex.EncodeToString(sum[:])
	}
	return defs
}

// checkKey derives the content key of one oracle invocation.
func checkKey(cs Case, opt CheckOptions) (string, error) {
	opt = opt.withDefaults()
	return rescache.Key(checkKeyDoc{
		Kind:            "conformance/check",
		Case:            cs,
		NoiseFloor:      opt.NoiseFloor,
		RelTol:          opt.RelTol,
		AbsTol:          opt.AbsTol,
		SkipDeterminism: opt.SkipDeterminism,
		DropProperty:    opt.DropProperty,
		Perturb:         opt.Perturb,
		Defs:            caseDefs(cs),
	})
}

// CheckCached is Check behind the process-wide result cache: a hit
// returns the stored Outcome without executing anything; a miss runs
// Check and writes the verdict through.  Without an installed cache it
// is exactly Check.  Errors (ill-formed cases) are never cached;
// failing Outcomes are — a deterministic FAIL verdict is as replayable
// as an ok one, and a warm rerun of a failing sweep must print the same
// bytes.
func CheckCached(cs Case, opt CheckOptions) (Outcome, error) {
	check := func() (Outcome, error) { return Check(cs, opt) }
	c := ResultCache()
	if c == nil {
		return check()
	}
	key, _ := checkKey(cs, opt) // an unkeyable case ("" key) recomputes
	return campaign.Cached(c, key, check)
}

// calKeyDoc keys one noise-floor calibration cell.  The profile's seed
// is normalized away by the caller (the floor is a property of shape ×
// disturbance magnitudes alone).
type calKeyDoc struct {
	Kind    string          `json:"kind"`
	Procs   int             `json:"procs"`
	Threads int             `json:"threads"`
	Profile perturb.Profile `json:"profile"`
}

// calDiskKey derives the on-disk key of one calibration cell.
func calDiskKey(k calKey) (string, error) {
	return rescache.Key(calKeyDoc{
		Kind:    "conformance/calibration",
		Procs:   k.procs,
		Threads: k.threads,
		Profile: k.prof,
	})
}
