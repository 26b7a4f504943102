package conformance

import (
	"sync"

	"repro/internal/analyzer"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/perturb"
)

// The robustness axis (paper §1, "robustness of the analysis"): a tool
// that only works on noiseless inputs is not a tool.  CheckRobust sweeps
// the full oracle over a ladder of deterministic perturbation profiles —
// clock-rate skew, stragglers, message and collective jitter, OS-noise
// bursts — and demands that every injected property stays detected,
// localized and ranked, and that no spurious property crosses the noise
// floor.  Because the perturbations are pure functions of the profile,
// the determinism axis keeps holding too: two perturbed runs of the same
// case hash identically.

// DefaultLevels is the standard robustness sweep: unperturbed plus every
// rung of the perturbation ladder.  Level 0 must reproduce the
// unperturbed oracle bit for bit.
var DefaultLevels = []int{0, 1, 2, 3}

// RobustOutcome aggregates one oracle verdict per perturbation level.
type RobustOutcome struct {
	Levels   []int             // the swept levels, in order
	Profiles []perturb.Profile // the perturbation profile applied at each level
	Outcomes []Outcome         // Check outcome at each level
	FailedAt int               // index into Levels of the first failing level; -1 if all held
}

// OK reports whether the oracle held at every level.
func (ro RobustOutcome) OK() bool { return ro.FailedAt < 0 }

// FailOutcome returns the outcome of the first failing level (zero
// Outcome if all levels held).
func (ro RobustOutcome) FailOutcome() Outcome {
	if ro.FailedAt < 0 {
		return Outcome{}
	}
	return ro.Outcomes[ro.FailedAt]
}

// FailProfile returns the perturbation profile of the first failing level
// (zero profile if all levels held) — plug it into CheckOptions.Perturb to
// reproduce or shrink the failure.
func (ro RobustOutcome) FailProfile() perturb.Profile {
	if ro.FailedAt < 0 {
		return perturb.Profile{}
	}
	return ro.Profiles[ro.FailedAt]
}

// CheckRobust runs the oracle at each perturbation level (DefaultLevels
// when levels is nil).  Each level perturbs with a profile derived from
// the case seed, so the sweep — like everything else in the harness — is
// a pure function of the case.  The returned error reports an ill-formed
// case, exactly as Check does.  Levels are checked through the
// process-wide result cache (CheckCached) when one is installed, at
// per-level granularity: a sweep interrupted mid-ladder resumes at the
// first level it had not finished.
func CheckRobust(cs Case, opt CheckOptions, levels []int) (RobustOutcome, error) {
	if len(levels) == 0 {
		levels = DefaultLevels
	}
	ro := RobustOutcome{Levels: levels, FailedAt: -1}
	for i, lvl := range levels {
		o := opt
		o.Perturb = perturb.Level(cs.Seed, lvl)
		out, err := CheckCached(cs, o)
		if err != nil {
			return ro, err
		}
		ro.Profiles = append(ro.Profiles, o.Perturb)
		ro.Outcomes = append(ro.Outcomes, out)
		if !out.OK() && ro.FailedAt < 0 {
			ro.FailedAt = i
		}
	}
	return ro, nil
}

// Noise-floor calibration.  The unperturbed oracle uses a hard-coded
// floor that absorbs µs-scale cost-model skew; under perturbation the
// spurious wait a *correct* analyzer reports is set by the perturbation
// profile itself, so the floor is measured, not guessed: run a known-clean
// composite (the package core negative programs — balanced MPI, OpenMP
// and hybrid phases) under the same shape and perturbation level at a few
// fixed calibration seeds, take the worst spurious wait any single
// analyzer property accumulates, and pad it with a safety margin.

const (
	// calSeeds is how many independent perturbation seeds the calibration
	// averages over — fixed, and deliberately independent of the case
	// seed, so the floor is a property of (shape, level) alone.
	calSeeds = 4
	// calMargin pads the worst observed spurious wait: a calibration over
	// a handful of seeds underestimates the tail.
	calMargin = 3.0
	// calWork/calReps size the calibration composite.
	calWork = 0.002
	calReps = 3
)

// calKey caches calibration per shape and per seed-independent profile.
// Every Virtual-mode run executes on the event engine, so the floor
// needs no engine identity; the result cache stamps each entry with the
// engine version.
type calKey struct {
	procs, threads int
	prof           perturb.Profile
}

// calCell is one (shape, level) calibration, computed at most once per
// process: concurrent campaign workers that need the same cell wait for
// the first one's result instead of each calibrating and writing it.
type calCell struct {
	once  sync.Once
	floor float64
}

var calCache sync.Map // calKey -> *calCell

// CalibratedNoiseFloor returns the empirical negative-axis noise floor
// for the given shape under the given perturbation profile: the margin-
// padded worst spurious wait a correct analysis reports on perturbed
// clean composites.  The result depends only on the shape, the profile's
// disturbance magnitudes (the seed is normalized away), and is cached —
// in-memory always, and through the process-wide result cache when one is
// installed (SetResultCache), so a fuzzing campaign pays for each
// (shape, level) cell once per cache lifetime rather than once per
// process.
func CalibratedNoiseFloor(procs, threads int, prof perturb.Profile) float64 {
	if prof.Zero() {
		return 0
	}
	key := calKey{procs: procs, threads: threads, prof: prof}
	key.prof.Seed = 0
	v, ok := calCache.Load(key)
	if !ok {
		v, _ = calCache.LoadOrStore(key, new(calCell))
	}
	cell := v.(*calCell)
	cell.once.Do(func() {
		done := false
		defer func() {
			if !done { // a panicking calibration leaves no cell behind
				calCache.CompareAndDelete(key, cell)
			}
		}()
		cell.floor = calibrateFloor(key)
		done = true
	})
	return cell.floor
}

// calibrateFloor computes one calibration cell, through the result cache
// when one is installed.
func calibrateFloor(key calKey) float64 {
	calibrate := func() (float64, error) {
		var worst float64
		for s := uint64(1); s <= calSeeds; s++ {
			p := key.prof
			p.Seed = s
			w, err := spuriousWait(key.procs, key.threads, p)
			if err != nil {
				// The clean composite cannot deadlock; treat a failed
				// calibration run as contributing nothing rather than
				// wedging the oracle.
				continue
			}
			if w > worst {
				worst = w
			}
		}
		return calMargin * worst, nil
	}
	var floor float64
	if c := ResultCache(); c != nil {
		diskKey, _ := calDiskKey(key) // an unkeyable cell ("" key) recomputes
		floor, _ = campaign.Cached(c, diskKey, calibrate)
	} else {
		floor, _ = calibrate()
	}
	return floor
}

// spuriousWait runs the clean composite under the profile and returns the
// worst waiting time any single non-info analyzer property accumulates —
// all of it spurious by construction.
func spuriousWait(procs, threads int, prof perturb.Profile) (float64, error) {
	team := omp.Options{Threads: threads}
	tr, err := mpi.Run(mpi.Options{Procs: procs, Perturb: perturb.NewModel(prof)}, func(c *mpi.Comm) {
		c.Begin("perturb_calibration")
		defer c.End()
		core.NegativeBalancedMPI(c, calWork, calReps)
		core.NegativeBalancedHybrid(c, team, calWork, calReps)
		core.NegativeBalancedOMP(c.Ctx(), team, calWork, calReps)
	})
	if err != nil {
		return 0, err
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	var worst float64
	for _, prop := range rep.Properties() {
		if analyzer.IsInfo(prop) {
			continue
		}
		if w := waitOutsideSeparators(rep.Get(prop)); w > worst {
			worst = w
		}
	}
	return worst, nil
}
