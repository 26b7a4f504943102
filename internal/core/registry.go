package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/distr"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/trace"
	"repro/internal/xctx"
)

// Paradigm classifies a property function by the programming model it
// exercises.
type Paradigm uint8

const (
	// ParadigmMPI properties run on an MPI communicator.
	ParadigmMPI Paradigm = iota
	// ParadigmOMP properties run on an OpenMP team.
	ParadigmOMP
	// ParadigmHybrid properties mix both.
	ParadigmHybrid
)

// String names the paradigm.
func (p Paradigm) String() string {
	switch p {
	case ParadigmMPI:
		return "mpi"
	case ParadigmOMP:
		return "omp"
	case ParadigmHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("paradigm(%d)", uint8(p))
	}
}

// ParamKind types a property-function parameter.
type ParamKind uint8

const (
	// ParamFloat is a float64 parameter (work amounts in seconds).
	ParamFloat ParamKind = iota
	// ParamInt is an integer parameter (repetitions, root rank).
	ParamInt
	// ParamDistr is a generic distribution parameter (function name plus
	// descriptor values), as used by the imbalance properties.
	ParamDistr
)

// DistrSpec is the serializable form of a distribution argument: the
// function name plus the descriptor parameters, mirroring what a generated
// test program accepts on its command line.  The JSON encoding is the wire
// form used by replayable conformance cases.
type DistrSpec struct {
	Name string  `json:"name"` // distribution function name, e.g. "block2"
	Low  float64 `json:"low"`  // first descriptor value (Val for "same")
	High float64 `json:"high,omitempty"`
	Med  float64 `json:"med,omitempty"`
	N    int     `json:"n,omitempty"` // peak rank for "peak"
}

// Resolve looks the function up and builds its descriptor.
func (ds DistrSpec) Resolve() (distr.Func, distr.Desc, error) {
	df, ok := distr.Lookup(ds.Name)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown distribution %q", ds.Name)
	}
	kind, _ := distr.DescKind(ds.Name)
	dd, err := distr.ParseDesc(kind, ds.Low, ds.High, ds.Med, ds.N)
	if err != nil {
		return nil, nil, err
	}
	return df, dd, nil
}

// Param describes one parameter of a property function, with its default —
// the information the test-program generator turns into command-line
// flags (paper §3.2).  The Min/Max fields bound the *in-range* values a
// randomized conformance test may draw for the parameter: within them the
// property function is well defined and its closed-form expected wait
// (Spec.ExpectedWait) holds.  They are metadata for test generation, not
// runtime constraints — the property functions themselves accept any
// value.
type Param struct {
	Name     string
	Kind     ParamKind
	DefFloat float64
	DefInt   int
	DefDistr DistrSpec
	Help     string
	// MinFloat/MaxFloat bound in-range ParamFloat draws (inclusive).
	MinFloat, MaxFloat float64
	// MinInt/MaxInt bound in-range ParamInt draws (inclusive).
	MinInt, MaxInt int
	// Rank marks a ParamInt that indexes a member of the executing group
	// (a root rank); its in-range interval is [0, group size) at draw
	// time, so MinInt/MaxInt are left zero.
	Rank bool
}

// Args carries concrete parameter values for one invocation.
type Args struct {
	Float map[string]float64
	Int   map[string]int
	Distr map[string]DistrSpec
}

// NewArgs returns an empty argument set.
func NewArgs() Args {
	return Args{
		Float: make(map[string]float64),
		Int:   make(map[string]int),
		Distr: make(map[string]DistrSpec),
	}
}

// F fetches a float parameter (panics on absence: construction bugs in
// test harnesses should fail loudly).
func (a Args) F(name string) float64 {
	v, ok := a.Float[name]
	if !ok {
		panic(fmt.Sprintf("core: missing float arg %q", name))
	}
	return v
}

// I fetches an int parameter.
func (a Args) I(name string) int {
	v, ok := a.Int[name]
	if !ok {
		panic(fmt.Sprintf("core: missing int arg %q", name))
	}
	return v
}

// D fetches and resolves a distribution parameter.
func (a Args) D(name string) (distr.Func, distr.Desc) {
	ds, ok := a.Distr[name]
	if !ok {
		panic(fmt.Sprintf("core: missing distribution arg %q", name))
	}
	df, dd, err := ds.Resolve()
	if err != nil {
		panic(err)
	}
	return df, dd
}

// Env is the execution environment handed to a registered property
// function: the MPI communicator (nil for pure-OpenMP programs), the
// encountering executor context, and the OpenMP team options.
type Env struct {
	Comm *mpi.Comm
	Ctx  *xctx.Ctx
	OMP  omp.Options
}

// Spec describes one registered property function: everything the
// single-property program generator, the CLI driver, and the
// positive-correctness experiments need.  The spec holds the expected
// results the oracle checks the property against (ExpectedWait, Detects,
// Companions); the analyzer under test only reports findings.
type Spec struct {
	Name     string
	Paradigm Paradigm
	Help     string
	Params   []Param
	// Run executes the property function with the given arguments.
	Run func(env Env, a Args)
	// ExpectedWait returns the theoretical total waiting time (seconds,
	// summed over locations and repetitions) the property should induce
	// in virtual time, or a negative value if no closed form exists.
	// procs and threads describe the environment.
	ExpectedWait func(procs, threads int, a Args) float64
	// Detects is the analyzer property a correct tool must report as the
	// dominant finding of the function's single-property test program —
	// the positive-correctness oracle.  When it is an info metric
	// (analyzer.IsInfo) neither conformance axis can check the function
	// mechanically, and the fuzzer's default pool leaves it out.
	Detects string
	// Companions lists analyzer properties the function legitimately
	// co-produces besides Detects; the conformance oracle's negative
	// axis must not flag them.  (ASL scenarios mixing primitives record
	// their secondary detections here.)
	Companions []string
	// ASL holds the scenario source text when the spec was compiled from
	// an ASL scenario declaration (empty for built-ins).  The program
	// generator embeds it so emitted programs can re-register the
	// scenario before running it.
	ASL string
}

// Defaults builds the argument set holding every parameter's default.
func (s *Spec) Defaults() Args {
	a := NewArgs()
	for _, p := range s.Params {
		switch p.Kind {
		case ParamFloat:
			a.Float[p.Name] = p.DefFloat
		case ParamInt:
			a.Int[p.Name] = p.DefInt
		case ParamDistr:
			a.Distr[p.Name] = p.DefDistr
		}
	}
	return a
}

// Exec runs the property function as a single-property test program
// (paper §3.2) in a fresh environment.  Pure-OpenMP properties run on a
// standalone team of threads threads; MPI and hybrid properties run on
// procs ranks (hybrid ones fork teams of threads threads per rank).  A
// nil sink materializes and returns the trace; a non-nil one spools the
// events as they are recorded and the returned trace is nil (see
// mpi.Options.Sink).
func (s *Spec) Exec(procs, threads int, a Args, sink *trace.ChunkWriter) (*trace.Trace, error) {
	team := omp.Options{Threads: threads}
	if s.Paradigm == ParadigmOMP {
		return omp.Run(omp.RunOptions{Threads: threads, Sink: sink}, func(ctx *xctx.Ctx, _ omp.Options) {
			s.Run(Env{Ctx: ctx, OMP: team}, a)
		})
	}
	return mpi.Run(mpi.Options{Procs: procs, Sink: sink}, func(c *mpi.Comm) {
		s.Run(Env{Comm: c, Ctx: c.Ctx(), OMP: team}, a)
	})
}

// registry state.  specs is the registry's values sorted by name,
// rebuilt under regMu on every change so All and Names need no map walk
// or sort.  A specs slice is never modified once built, so All can share
// it.
var (
	regMu    sync.RWMutex
	registry = map[string]*Spec{}
	specs    []*Spec
)

// reindexLocked rebuilds specs into a fresh slice; regMu must be held for
// writing.
func reindexLocked() {
	fresh := make([]*Spec, 0, len(registry))
	for _, s := range registry {
		fresh = append(fresh, s)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Name < fresh[j].Name })
	specs = fresh
}

// Register adds a property spec; duplicate names are rejected.
func Register(s *Spec) error {
	if s == nil || s.Name == "" || s.Run == nil {
		return fmt.Errorf("core: invalid spec")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("core: property %q already registered", s.Name)
	}
	registry[s.Name] = s
	reindexLocked()
	return nil
}

func mustRegister(s *Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Unregister removes a spec from the registry (a no-op for unknown
// names).  It exists for dynamically registered properties — ASL
// scenarios — and for test hygiene; the built-in registrations are never
// removed by the shipped tools.
func Unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
	reindexLocked()
}

// Get returns the spec registered under name.
func Get(name string) (*Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the sorted names of all registered properties in a
// fresh slice the caller may modify.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// All returns all specs sorted by name as a shared, read-only snapshot:
// the caller must not modify it, and later registrations do not change
// it.
func All() []*Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	return specs
}

// common parameter constructors.  The derived in-range intervals keep the
// default centered: work amounts fuzz between a tenth and twice their
// default (small enough to stay fast, large enough to move severities
// across the significance threshold), repetition counts between 1 and the
// default.

func fparam(name string, def float64, help string) Param {
	return Param{Name: name, Kind: ParamFloat, DefFloat: def, Help: help,
		MinFloat: def / 10, MaxFloat: def * 2}
}

func iparam(name string, def int, help string) Param {
	max := def
	if max < 1 {
		max = 1
	}
	return Param{Name: name, Kind: ParamInt, DefInt: def, Help: help,
		MinInt: 1, MaxInt: max}
}

// rankparam declares an int parameter that names a rank of the executing
// group; conformance draws it uniformly from [0, group size).
func rankparam(name string, def int, help string) Param {
	return Param{Name: name, Kind: ParamInt, DefInt: def, Help: help, Rank: true}
}

func dparam(name string, def DistrSpec, help string) Param {
	return Param{Name: name, Kind: ParamDistr, DefDistr: def, Help: help}
}

// defaultImbalanceDistr is the default distribution for the imbalance
// properties: block2 with a 1:5 work ratio.
var defaultImbalanceDistr = DistrSpec{
	Name: "block2", Low: DefaultBasework, High: DefaultBasework + DefaultExtrawork,
}

// imbalanceWait returns the closed-form waiting time of a df-driven
// imbalance followed by a synchronizing operation.
func imbalanceWait(ds DistrSpec, group, reps int) float64 {
	df, dd, err := ds.Resolve()
	if err != nil {
		return -1
	}
	return float64(reps) * distr.Imbalance(df, group, 1.0, dd)
}
