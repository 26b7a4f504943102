// Package conformance implements a seeded, deterministic metamorphic
// fuzzer for the automatic analyzer — the randomized form of the paper's
// three correctness axes.
//
// The hand-written fixtures in internal/core and internal/experiments
// exercise each property function once, with defaults.  This package turns
// the same ground truth into an *oracle* for unbounded randomized testing:
// a Case is a composite test program drawn deterministically from a seed —
// a random subset of registered property specs, random in-range parameters
// (the Min/Max metadata on core.Param), and a random rank × thread shape.
// Running the case through trace + analyzer, the oracle checks:
//
//   - positive correctness: every injected property with a closed-form
//     expected wait must be detected as its expected analyzer property,
//     localized to call paths inside the property function's trace region,
//     with the measured wait matching the closed form within tolerance —
//     and reported significant when clearly above the threshold;
//   - negative correctness: no analyzer property outside the injected set
//     (info metrics aside) may accumulate waiting above the noise floor;
//   - semantics/determinism: re-running the identical case must produce a
//     byte-identical canonical profile (internal/profile content hash).
//
// On failure the shrinker (shrink.go) minimizes the composite — drop
// properties, then halve parameters — to a smallest reproducer, which is
// written as a replayable JSON case (corpus.go).  The same engine backs
// the Go native fuzz harnesses, the quick-mode unit test, and the
// cmd/atsfuzz CLI.
package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// CaseSchema identifies the replayable-case wire format.
const CaseSchema = 1

// CaseProp is one injected property invocation: the registered property
// name plus its concrete argument values (the serializable mirror of
// core.Args).
type CaseProp struct {
	Name  string                    `json:"name"`
	Float map[string]float64        `json:"float,omitempty"`
	Int   map[string]int            `json:"int,omitempty"`
	Distr map[string]core.DistrSpec `json:"distr,omitempty"`
}

// Args converts the serialized values into a core argument set.
func (cp CaseProp) Args() core.Args {
	a := core.NewArgs()
	for k, v := range cp.Float {
		a.Float[k] = v
	}
	for k, v := range cp.Int {
		a.Int[k] = v
	}
	for k, v := range cp.Distr {
		a.Distr[k] = v
	}
	return a
}

// Case is one composite conformance test program, fully determined by its
// fields (the seed is recorded for provenance; replay uses the explicit
// shape and arguments).
type Case struct {
	Schema    int        `json:"schema"`
	Seed      uint64     `json:"seed"`
	Procs     int        `json:"procs"`
	Threads   int        `json:"threads"`
	Threshold float64    `json:"threshold"`
	Props     []CaseProp `json:"props"`
}

// String renders a compact one-line description of the case.
func (cs Case) String() string {
	names := make([]string, len(cs.Props))
	for i, p := range cs.Props {
		names[i] = p.Name
	}
	return fmt.Sprintf("seed=%d %dx%d [%s]", cs.Seed, cs.Procs, cs.Threads,
		strings.Join(names, " "))
}

// Config tunes case generation.
type Config struct {
	// Procs and Threads are the candidate shapes (defaults {2,3,4,6,8}
	// and {1,2,4}).
	Procs   []int
	Threads []int
	// MinProps/MaxProps bound the number of injected properties
	// (defaults 1 and 4).
	MinProps, MaxProps int
	// Threshold is the analyzer significance threshold recorded in the
	// case (default 0.005).
	Threshold float64
	// Pool is the set of property names to draw from (default: every
	// registered property except ExcludedProperties).
	Pool []string
}

// ExcludedProperties are registered properties the default pool omits:
// dominated_by_communication has no closed-form wait and its expected
// detection is an info metric, so neither the positive nor the negative
// axis can be checked mechanically for it.
var ExcludedProperties = map[string]bool{
	"dominated_by_communication": true,
}

// DefaultPool returns the default property pool in sorted order, in a
// fresh slice the caller may modify.
func DefaultPool() []string { return appendDefaultPool(nil) }

// appendDefaultPool appends the default pool, sorted, to dst: the
// registry's read-only name snapshot without ExcludedProperties.
func appendDefaultPool(dst []string) []string {
	for _, name := range core.SortedNames() {
		if !ExcludedProperties[name] {
			dst = append(dst, name)
		}
	}
	return dst
}

// Default candidate shapes; read-only.
var (
	defaultProcs   = []int{2, 3, 4, 6, 8}
	defaultThreads = []int{1, 2, 4}
)

// withDefaults fills every unset field except Pool, which Generate
// resolves itself (the default pool comes fresh and sorted).
func (cfg Config) withDefaults() Config {
	if len(cfg.Procs) == 0 {
		cfg.Procs = defaultProcs
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = defaultThreads
	}
	if cfg.MinProps <= 0 {
		cfg.MinProps = 1
	}
	if cfg.MaxProps < cfg.MinProps {
		cfg.MaxProps = 4
		if cfg.MaxProps < cfg.MinProps {
			cfg.MaxProps = cfg.MinProps
		}
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.005
	}
	return cfg
}

// distrNames are the distribution functions conformance draws from.
// "same" is deliberately included: a flat distribution must produce *no*
// finding, turning the drawn property into a negative-correctness check.
var distrNames = []string{"block2", "cyclic2", "linear", "peak", "block3", "cyclic3", "same"}

// roundArg snaps a drawn float to a microsecond grid so case files stay
// readable and round-trip exactly through JSON.
func roundArg(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// rngPool recycles generators over go1Source (rng.go): (*rand.Rand).Seed
// resets the source and the read position, so a reseeded generator draws
// exactly the sequence of a fresh rand.New(rand.NewSource(seed)) without
// allocating, and builds only the state words the case reads.
var rngPool = sync.Pool{New: func() any { return rand.New(newGo1Source(0)) }}

// Generate draws the case for seed deterministically: same seed and
// config, same case — on any machine and across runs.  The draws come
// from go1Source, a committed replica of math/rand's Go 1 source
// (rand.NewSource, whose sequence the Go 1 compatibility promise keeps
// stable); TestGo1SourceMatchesMathRand holds the replica to math/rand,
// and TestGenerateDigest and TestGenerateDigestHighSeeds pin the cases.
func Generate(seed uint64, cfg Config) Case {
	cfg = cfg.withDefaults()
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(int64(seed))
	cs := Case{
		Schema:    CaseSchema,
		Seed:      seed,
		Procs:     cfg.Procs[rng.Intn(len(cfg.Procs))],
		Threads:   cfg.Threads[rng.Intn(len(cfg.Threads))],
		Threshold: cfg.Threshold,
	}
	// A private copy, on the stack unless the pool outgrows it: the
	// shuffle permutes it.
	var scratch [64]string
	pool := scratch[:0]
	if len(cfg.Pool) > 0 {
		pool = append(pool, cfg.Pool...)
		sort.Strings(pool)
	} else {
		pool = appendDefaultPool(pool) // sorted
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	k := cfg.MinProps + rng.Intn(cfg.MaxProps-cfg.MinProps+1)
	if k > len(pool) {
		k = len(pool)
	}
	for _, name := range pool[:k] {
		spec, ok := core.Get(name)
		if !ok {
			continue // pool entry vanished from the registry; skip
		}
		cs.Props = append(cs.Props, randomProp(rng, spec, groupSize(spec, cs)))
	}
	return cs
}

// groupSize is the size of the group a spec's rank-valued and
// distribution parameters index: the thread team for pure-OpenMP
// properties, the rank world otherwise.
func groupSize(spec *core.Spec, cs Case) int {
	if spec.Paradigm == core.ParadigmOMP {
		return cs.Threads
	}
	return cs.Procs
}

// randomProp draws in-range arguments for every parameter of spec.
func randomProp(rng *rand.Rand, spec *core.Spec, group int) CaseProp {
	cp := CaseProp{Name: spec.Name}
	for _, p := range spec.Params {
		switch p.Kind {
		case core.ParamFloat:
			if cp.Float == nil {
				cp.Float = make(map[string]float64)
			}
			v := p.MinFloat + rng.Float64()*(p.MaxFloat-p.MinFloat)
			v = roundArg(v)
			if v < p.MinFloat {
				v = p.MinFloat
			}
			cp.Float[p.Name] = v
		case core.ParamInt:
			if cp.Int == nil {
				cp.Int = make(map[string]int)
			}
			if p.Rank {
				cp.Int[p.Name] = rng.Intn(group)
			} else {
				cp.Int[p.Name] = p.MinInt + rng.Intn(p.MaxInt-p.MinInt+1)
			}
		case core.ParamDistr:
			if cp.Distr == nil {
				cp.Distr = make(map[string]core.DistrSpec)
			}
			low := roundArg(0.002 + rng.Float64()*0.018)
			high := roundArg(low + 0.005 + rng.Float64()*0.05)
			cp.Distr[p.Name] = core.DistrSpec{
				Name: distrNames[rng.Intn(len(distrNames))],
				Low:  low,
				High: high,
				Med:  roundArg(low + rng.Float64()*(high-low)),
				N:    rng.Intn(group),
			}
		}
	}
	return cp
}
