package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/conformance"
	"repro/internal/rescache"
)

// fuzz is the paper's oracle at campaign scale: campaign.Stream over a
// seed range, each job conformance.Generate then conformance.CheckCached
// against the run's own result cache.
//
// Cold: every round checks seeds not seen before, so each check misses
// and runs engine, trace, analyzer (materialized and streamed rerun) and
// profile hash, then writes the verdict through.  atsd, regress and
// similarity are bypassed.
//
// Warm: setup fills the cache with one seed range; every round replays
// it, so each check hits and the engine and analyzer never run.  An
// engine optimisation must leave this workload unchanged.
type fuzz struct {
	cfg   config
	warm  bool
	base  uint64 // first case seed of the run
	batch int    // cases per round
	store *rescache.Store
	next  uint64 // cold: first seed of the next round

	coldLines []string // warm: outcome line per case of the cold fill

	// Measured-round totals.
	cases, events      int
	hits, misses       int64
	sinkWait, jobTotal time.Duration // traced rounds only
}

// fuzzWarmup is the number of cases a cold setup checks before timing
// starts.  They are the same cases for every seed (seeds 1…fuzzWarmup,
// below every caseBase), so the set-up time does not vary with the seed.
const fuzzWarmup = 200

func newFuzz(cfg config, warm bool) *fuzz {
	f := &fuzz{cfg: cfg, warm: warm, base: caseBase(cfg.seed), batch: 400}
	if warm {
		f.batch = 600
	}
	if cfg.smoke {
		f.batch = 8
	}
	return f
}

// caseBase maps a benchmark seed to the first conformance case seed of its
// range.  Distinct benchmark seeds below 10⁶ get disjoint ranges of 10⁶
// cases, far more than one run checks.
func caseBase(seed uint64) uint64 { return (seed%1_000_000 + 1) * 1_000_000 }

// roundsPerSecond: 400 cold cases at ~900 cases/s, or one 600-case
// replay at ~25000 cases/s.
func (f *fuzz) roundsPerSecond() float64 {
	if f.warm {
		return 40
	}
	return 2.2
}

func (f *fuzz) setup(dir string) error {
	st, err := rescache.Open(filepath.Join(dir, "rescache"))
	if err != nil {
		return err
	}
	f.store = st
	if !f.warm {
		// Warm-up: lazy initialisation and buffer pools.
		n := fuzzWarmup
		if f.cfg.smoke {
			n = f.batch
		}
		_, err := f.run(1, n, nil, "conformance.check_miss", nil)
		f.next = f.base
		return err
	}
	f.coldLines = make([]string, f.batch)
	record := func(i int, line string) bool { f.coldLines[i] = line; return true }
	if _, err := f.run(f.base, f.batch, nil, "conformance.check_miss", record); err != nil {
		return err
	}
	// One replay pass warms the page cache and the decode path.
	_, err = f.run(f.base, f.batch, nil, "conformance.check_hit", nil)
	return err
}

// checked is one job's result.
type checked struct {
	out conformance.Outcome
	lat time.Duration
	end time.Time
}

// outcomeLine is the part of a verdict the warm replay must reproduce
// byte for byte.
func outcomeLine(o conformance.Outcome) string {
	return fmt.Sprintf("%s %d %d %v", o.Hash, o.Events, o.Findings, o.Violations)
}

// run checks n cases from seed first on the campaign pool, spans named
// check around CheckCached.  A case fails when its verdict is not OK or
// when accept (if set) rejects its outcome line.
func (f *fuzz) run(first uint64, n int, t *tracer, check string, accept func(i int, line string) bool) (roundStats, error) {
	conformance.SetResultCache(f.store)
	pool := t.pool("worker", f.cfg.workers)
	st := roundStats{ops: n, items: n, lat: make([]float64, 0, n)}
	err := campaign.Stream(n, campaign.Options{Workers: f.cfg.workers},
		func(i int) (checked, error) {
			l := pool.get()
			defer pool.put(l)
			start := time.Now()
			l.begin("campaign.job", int64(i))
			l.begin("conformance.generate", int64(i))
			cs := conformance.Generate(first+uint64(i), conformance.Config{})
			l.end()
			l.begin(check, int64(i))
			out, err := conformance.CheckCached(cs, conformance.CheckOptions{})
			l.end()
			l.end()
			end := time.Now()
			return checked{out: out, lat: end.Sub(start), end: end}, err
		},
		func(i int, c checked) error {
			if t != nil {
				f.sinkWait += time.Since(c.end)
				f.jobTotal += c.lat
			}
			st.lat = append(st.lat, float64(c.lat)/1e6)
			f.events += c.out.Events
			if !c.out.OK() || (accept != nil && !accept(i, outcomeLine(c.out))) {
				st.failed++
			}
			return nil
		})
	return st, err
}

func (f *fuzz) round(r int, t *tracer) (roundStats, error) {
	before := f.store.Stats()
	if r == 0 {
		f.events = 0 // drop what setup counted
	}
	var st roundStats
	var err error
	if f.warm {
		st, err = f.run(f.base, f.batch, t, "conformance.check_hit", func(i int, line string) bool {
			return line == f.coldLines[i]
		})
	} else {
		st, err = f.run(f.next, f.batch, t, "conformance.check_miss", nil)
		f.next += uint64(f.batch)
	}
	after := f.store.Stats()
	f.hits += after.Hits - before.Hits
	f.misses += after.Misses - before.Misses
	f.cases += f.batch
	return st, err
}

func (f *fuzz) finish(lg ledger) (int, map[string]float64, error) {
	if lg.rounds == 0 {
		return 0, nil, nil
	}
	w := f.cfg.workers
	check := "conformance.check_miss"
	if f.warm {
		check = "conformance.check_hit"
	}
	gen, chk := lg.share("conformance.generate", w), lg.share(check, w)
	layers := map[string]float64{
		"conformance.generate.frac": gen,
		check + ".frac":             chk,
		"remainder_frac":            1 - gen - chk,
		"campaign.busy_frac":        lg.times["campaign.job"].total.Seconds() / (float64(w) * lg.wall.Seconds()),
		"campaign.sink_wait_frac":   f.sinkWait.Seconds() / f.jobTotal.Seconds(),
		"rescache.hit_ratio":        float64(f.hits) / float64(f.hits+f.misses),
	}
	if !f.warm {
		layers["conformance.events_per_case"] = float64(f.events) / float64(f.cases)
	}
	get, put, err := replayRescache(f.store, filepath.Join(f.cfg.dir, "rescache-replay"), 2000)
	if err != nil {
		return 0, nil, err
	}
	layers["rescache.get_per_s"], layers["rescache.put_per_s"] = get, put
	return 0, layers, nil
}

// replayRescache times Store.Get on up to limit keys the sweep wrote and
// Store.Put of the same entries into a fresh store at dir, and returns
// both rates in operations per second.  Keys are listed from the store's
// objects/<xx>/<key>.json layout.
func replayRescache(src *rescache.Store, dir string, limit int) (getPerS, putPerS float64, err error) {
	paths, err := filepath.Glob(filepath.Join(src.Dir(), "objects", "*", "*.json"))
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(paths)
	if len(paths) > limit {
		paths = paths[:limit]
	}
	if len(paths) == 0 {
		return 0, 0, fmt.Errorf("rescache replay: no entries in %s", src.Dir())
	}
	dst, err := rescache.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	keys := make([]string, len(paths))
	for i, p := range paths {
		keys[i] = strings.TrimSuffix(filepath.Base(p), ".json")
	}
	vals := make([][]byte, len(keys))
	start := time.Now()
	for i, k := range keys {
		v, ok := src.Get(k)
		if !ok {
			return 0, 0, fmt.Errorf("rescache replay: %s missing", k)
		}
		vals[i] = v
	}
	getS := time.Since(start).Seconds()
	start = time.Now()
	for i, k := range keys {
		if err := dst.Put(k, vals[i]); err != nil {
			return 0, 0, err
		}
	}
	putS := time.Since(start).Seconds()
	return float64(len(keys)) / getS, float64(len(keys)) / putS, nil
}

func (f *fuzz) close() {
	if conformance.ResultCache() == f.store {
		conformance.SetResultCache(nil)
	}
}
