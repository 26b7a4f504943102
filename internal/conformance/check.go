package conformance

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/perturb"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Axis identifiers for violations.
const (
	// AxisRun: the case failed to execute (deadlock, timeout, crash).
	AxisRun = "run"
	// AxisPositive: an injected property was missed, mislocalized, or its
	// measured wait diverged from the closed form.
	AxisPositive = "positive"
	// AxisNegative: a non-injected property rose above the noise floor.
	AxisNegative = "negative"
	// AxisDeterminism: the identical case produced a different profile
	// hash.  The rerun goes through the streaming pipeline (an in-memory
	// ATSC chunk spool + incremental analysis), so this axis
	// simultaneously proves that the streamed and materialized analysis
	// paths are byte-identical.
	AxisDeterminism = "determinism"
)

// Violation is one oracle failure.
type Violation struct {
	Axis     string `json:"axis"`
	Property string `json:"property,omitempty"`
	Detail   string `json:"detail"`
}

func (v Violation) String() string {
	if v.Property == "" {
		return fmt.Sprintf("[%s] %s", v.Axis, v.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Axis, v.Property, v.Detail)
}

// Outcome is the oracle verdict for one case.
//
// It carries no copy of the case: every caller already holds the case
// it checked, so a cached Outcome is only the verdict.  Older cache
// entries whose value still holds a "Case" key decode unchanged:
// encoding/json skips the unknown key.
type Outcome struct {
	Hash       string // canonical profile content hash of the run
	Events     int    // trace size
	Findings   int    // significant findings reported
	Violations []Violation
}

// OK reports whether every axis held.
func (o Outcome) OK() bool { return len(o.Violations) == 0 }

// CheckOptions tunes the oracle.
type CheckOptions struct {
	// NoiseFloor is the absolute waiting time (seconds) a non-injected
	// property may accumulate before the negative axis fires; it absorbs
	// the µs-scale cost-model skew at phase-separator barriers
	// (default 0.002).
	NoiseFloor float64
	// RelTol and AbsTol bound the positive-axis wait mismatch:
	// |measured − expected| ≤ AbsTol + RelTol·expected + cost-model slack
	// (defaults 0.05 and 0.002).
	RelTol, AbsTol float64
	// SkipDeterminism skips the second (streamed) run and hash comparison.
	SkipDeterminism bool
	// DropProperty removes an analyzer property from the report before
	// checking — fault injection simulating a defective analyzer, used to
	// validate that the oracle notices and that the shrinker minimizes.
	DropProperty string
	// Perturb applies a deterministic timing-perturbation profile to the
	// run (robustness axis, see package perturb).  The zero profile leaves
	// the oracle exactly as unperturbed.  A non-zero profile widens the
	// positive-axis tolerance by the profile's wait budget and raises the
	// negative-axis floor to the empirically calibrated noise floor for
	// the case's shape; the determinism axis still demands byte-identical
	// reruns, because perturbation is a pure function of the profile.
	Perturb perturb.Profile
}

func (opt CheckOptions) withDefaults() CheckOptions {
	if opt.NoiseFloor <= 0 {
		opt.NoiseFloor = 0.002
	}
	if opt.RelTol <= 0 {
		opt.RelTol = 0.05
	}
	if opt.AbsTol <= 0 {
		opt.AbsTol = 0.002
	}
	return opt
}

// companions maps an injected core property to analyzer properties it
// legitimately co-produces besides its expected detection; the negative
// axis must not flag these.
var companions = map[string][]string{
	// The critical-section rounds are barrier-resynced, so the serialized
	// exits also skew the resync barrier (documented in properties_omp.go).
	"serialization_at_omp_critical": {analyzer.PropOMPBarrier},
	// The sending ranks' teams are internally imbalanced by construction;
	// the join wait inside the OMP region is the *cause* of the MPI-level
	// late sender, not a spurious finding.
	"hybrid_omp_imbalance_causes_late_sender": {analyzer.PropOMPRegion},
}

// NondeterministicWaits lists core properties whose per-thread wait
// *attribution* legitimately varies between runs: virtual-mode lock entry
// follows real arrival order at the lock (see internal/omp.Lock), so only
// the aggregate serialization time is scheduling-independent.  Cases
// containing one keep the positive and negative axes (which check
// aggregates) but skip the byte-identical-hash determinism axis.
var NondeterministicWaits = map[string]bool{
	"serialization_at_omp_critical": true,
}

func hasNondeterministicWaits(cs Case) bool {
	for _, p := range cs.Props {
		if NondeterministicWaits[p.Name] {
			return true
		}
	}
	return false
}

// Validate checks that a case is well-formed and replayable: known
// properties, resolvable distributions, a sane shape.
func (cs Case) Validate() error {
	if cs.Schema != CaseSchema {
		return fmt.Errorf("conformance: case schema %d, want %d", cs.Schema, CaseSchema)
	}
	if cs.Procs < 1 || cs.Threads < 1 {
		return fmt.Errorf("conformance: invalid shape %dx%d", cs.Procs, cs.Threads)
	}
	if len(cs.Props) == 0 {
		return fmt.Errorf("conformance: case has no properties")
	}
	for _, cp := range cs.Props {
		spec, ok := core.Get(cp.Name)
		if !ok {
			return fmt.Errorf("conformance: unknown property %q", cp.Name)
		}
		for _, p := range spec.Params {
			switch p.Kind {
			case core.ParamFloat:
				if _, ok := cp.Float[p.Name]; !ok {
					return fmt.Errorf("conformance: %s: missing float arg %q", cp.Name, p.Name)
				}
			case core.ParamInt:
				if _, ok := cp.Int[p.Name]; !ok {
					return fmt.Errorf("conformance: %s: missing int arg %q", cp.Name, p.Name)
				}
			case core.ParamDistr:
				ds, ok := cp.Distr[p.Name]
				if !ok {
					return fmt.Errorf("conformance: %s: missing distr arg %q", cp.Name, p.Name)
				}
				if _, _, err := ds.Resolve(); err != nil {
					return fmt.Errorf("conformance: %s: %w", cp.Name, err)
				}
			}
		}
	}
	return nil
}

// sepRegion names the harness's own phase-separator barrier region.  Some
// property functions legitimately end with ranks skewed (e.g.
// late_receiver on an odd world leaves the unpaired rank ahead); the
// separator re-synchronizes before the next phase, and the wait it absorbs
// belongs to the harness, not the program under test — the oracle excludes
// waits localized under this region from the negative axis.
const sepRegion = "conformance_separator"

// runCase executes the composite body of cs (see caseBody): one MPI
// world, every injected property in order, separated by barriers (the
// paper's composite-program shape, cf. core.CompositeAllMPI).
// Pure-OpenMP properties run per rank on the rank's own thread team.
func runCase(cs Case, prof perturb.Profile, body func(c *mpi.Comm)) (*trace.Trace, error) {
	return mpi.Run(mpi.Options{Procs: cs.Procs, Perturb: perturb.NewModel(prof)}, body)
}

// caseBody builds the per-rank program of the composite case.  Each
// property's spec and core.Args are resolved here, once, and shared by
// every rank of every run of the body: property functions only read their
// arguments (TestPropertiesDoNotMutateArgs).  The case must be valid.
func caseBody(cs Case) func(c *mpi.Comm) {
	team := omp.Options{Threads: cs.Threads}
	type step struct {
		spec *core.Spec
		args core.Args
	}
	steps := make([]step, len(cs.Props))
	for i, cp := range cs.Props {
		steps[i].spec, _ = core.Get(cp.Name)
		steps[i].args = cp.Args()
	}
	return func(c *mpi.Comm) {
		c.Begin("conformance_case")
		defer c.End()
		for _, st := range steps {
			st.spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: team}, st.args)
			c.Begin(sepRegion)
			c.Barrier()
			c.End()
		}
	}
}

// expectedWait returns the case-level closed-form wait for one injected
// property: the spec's per-environment form, times the rank count for
// pure-OpenMP properties (every rank runs its own team).
func expectedWait(cs Case, cp CaseProp) float64 {
	spec, _ := core.Get(cp.Name)
	w := spec.ExpectedWait(cs.Procs, cs.Threads, cp.Args())
	if w < 0 {
		return w
	}
	if spec.Paradigm == core.ParadigmOMP {
		w *= float64(cs.Procs)
	}
	return w
}

// containsSegment reports whether path, split on "/", contains region.
// It scans the segments in place.
func containsSegment(path, region string) bool {
	for {
		seg, rest, more := strings.Cut(path, "/")
		if seg == region {
			return true
		}
		if !more {
			return false
		}
		path = rest
	}
}

// pathWait sums a result's per-call-path waits over the paths passing
// through the named trace region — detection *and* localization in one
// number: wait attributed anywhere else does not count.
func pathWait(r *analyzer.Result, region string) float64 {
	if r == nil {
		return 0
	}
	paths := make([]string, 0, len(r.ByPath))
	for p := range r.ByPath {
		paths = append(paths, p)
	}
	sort.Strings(paths) // deterministic float accumulation
	var sum float64
	for _, p := range paths {
		if containsSegment(p, region) {
			sum += r.ByPath[p]
		}
	}
	return sum
}

// Check runs the case and applies the three correctness axes.  The
// returned error reports an ill-formed case; execution failures surface
// as AxisRun violations so the fuzzer can shrink them.
func Check(cs Case, opt CheckOptions) (Outcome, error) {
	opt = opt.withDefaults()
	var out Outcome
	if err := cs.Validate(); err != nil {
		return out, err
	}

	body := caseBody(cs) // shared by the run and the streamed rerun
	tr, err := runCase(cs, opt.Perturb, body)
	if err != nil {
		out.Violations = append(out.Violations, Violation{
			Axis: AxisRun, Detail: err.Error(),
		})
		return out, nil
	}
	out.Events = len(tr.Events)
	rep := analyzer.Analyze(tr, analyzer.Options{Threshold: cs.Threshold})
	out.Findings = len(rep.Significant())
	out.Hash, err = caseHash(cs, tr, rep)
	if err != nil {
		return out, err
	}

	if opt.DropProperty != "" {
		delete(rep.Results, opt.DropProperty)
	}

	// Robustness: under perturbation the injected waits smear by at most
	// the profile's wait budget, and the spurious-wait floor rises to the
	// empirically calibrated level for this shape (see robust.go).
	var extraSlack float64
	floor := opt.NoiseFloor
	if !opt.Perturb.Zero() {
		extraSlack = opt.Perturb.WaitBudget(rep.TotalTime, len(tr.Events))
		if cal := CalibratedNoiseFloor(cs.Procs, cs.Threads, opt.Perturb); cal > floor {
			floor = cal
		}
	}

	out.Violations = append(out.Violations, checkPositive(cs, rep, opt, extraSlack)...)
	out.Violations = append(out.Violations, checkNegative(cs, rep, floor)...)

	if !opt.SkipDeterminism && !hasNondeterministicWaits(cs) {
		hash2, err := streamedCaseHash(cs, opt.Perturb, body)
		if err != nil {
			out.Violations = append(out.Violations, Violation{
				Axis: AxisDeterminism, Detail: "streamed rerun failed: " + err.Error(),
			})
			return out, nil
		}
		if hash2 != out.Hash {
			out.Violations = append(out.Violations, Violation{
				Axis:   AxisDeterminism,
				Detail: fmt.Sprintf("profile hash changed between in-memory and streamed run: %s != %s", out.Hash, hash2),
			})
		}
	}
	return out, nil
}

// caseHash builds the canonical profile of a run and returns its content
// address — the determinism oracle.
func caseHash(cs Case, tr *trace.Trace, rep *analyzer.Report) (string, error) {
	prof, err := profile.FromRun("conformance", tr, rep, caseRunInfo(cs))
	if err != nil {
		return "", err
	}
	return prof.Hash()
}

// DefaultExperiment is the experiment name CaseProfile (and Check's
// determinism hash) records when the caller does not override it.
const DefaultExperiment = "conformance"

// CaseProfile runs the case unperturbed and returns its canonical profile
// plus the analysis report.  An empty experiment selects
// DefaultExperiment, under which the profile's content hash equals the
// hash Check computes for the same case — the contract the analysis
// server's dedup cache relies on to stay byte-identical with the offline
// CLI path.
func CaseProfile(cs Case, experiment string) (*profile.Profile, *analyzer.Report, error) {
	if experiment == "" {
		experiment = DefaultExperiment
	}
	if err := cs.Validate(); err != nil {
		return nil, nil, err
	}
	tr, err := runCase(cs, perturb.Profile{}, caseBody(cs))
	if err != nil {
		return nil, nil, err
	}
	rep := analyzer.Analyze(tr, analyzer.Options{Threshold: cs.Threshold})
	prof, err := profile.FromRun(experiment, tr, rep, caseRunInfo(cs))
	if err != nil {
		return nil, nil, err
	}
	return prof, rep, nil
}

func caseRunInfo(cs Case) profile.RunInfo {
	return profile.RunInfo{
		Procs: cs.Procs, Threads: cs.Threads,
		Params: map[string]string{"seed": fmt.Sprintf("%d", cs.Seed)},
	}
}

// spoolPool recycles the determinism rerun's in-memory spools: a sweep
// checks case after case, and each spool would otherwise regrow from empty.
var spoolPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// streamedCaseHash re-executes the case's body through the streaming
// pipeline — events spilled to an ATSC chunk spool, analyzed
// incrementally, never materialized — and returns the resulting profile
// hash.  Comparing it against the in-memory hash checks determinism and
// streamed/materialized equivalence in one shot.  A case is small, so the spool lives in memory:
// every frame and the index are encoded, validated and decoded exactly as
// from a spool file, without the file.
func streamedCaseHash(cs Case, prof perturb.Profile, body func(c *mpi.Comm)) (string, error) {
	spool := spoolPool.Get().(*bytes.Buffer)
	spool.Reset()
	defer spoolPool.Put(spool)
	w := trace.NewChunkWriterTo(spool, trace.DefaultSpillEvents)
	opts := mpi.Options{Procs: cs.Procs, Perturb: perturb.NewModel(prof), Sink: w}
	if _, err := mpi.Run(opts, body); err != nil {
		w.Abort()
		return "", err
	}
	if err := w.Close(); err != nil {
		return "", err
	}

	r, err := trace.NewChunkReader(bytes.NewReader(spool.Bytes()), int64(spool.Len()), trace.Limits{})
	if err != nil {
		return "", err
	}
	rep, info, err := profile.AnalyzeSpool(r, analyzer.Options{Threshold: cs.Threshold})
	if err != nil {
		return "", err
	}
	p, err := profile.FromAnalysis("conformance", info, rep, caseRunInfo(cs))
	if err != nil {
		return "", err
	}
	return p.Hash()
}

// checkPositive verifies that every injected property is detected as its
// expected analyzer property, localized to call paths inside the property
// function's own trace region, with the closed-form magnitude.
// extraSlack is the additional absolute tolerance granted under a
// perturbation profile (the profile's wait budget; 0 when unperturbed).
func checkPositive(cs Case, rep *analyzer.Report, opt CheckOptions, extraSlack float64) []Violation {
	var vs []Violation
	// Group by core property name: duplicate invocations share a trace
	// region, so their closed forms sum over the same localized paths.
	type inj struct {
		want     string
		expected float64
		slack    float64
	}
	byName := make(map[string]*inj)
	names := make([]string, 0, len(cs.Props))
	wantSum := make(map[string]float64) // analyzer property -> total expected
	for _, cp := range cs.Props {
		w := expectedWait(cs, cp)
		if w < 0 {
			continue // no closed form; nothing mechanical to assert
		}
		g := byName[cp.Name]
		if g == nil {
			g = &inj{want: analyzer.ExpectedDetection[cp.Name]}
			byName[cp.Name] = g
			names = append(names, cp.Name)
		}
		g.expected += w
		// Cost-model slack: per-operation protocol terms are µs-scale and
		// grow with repetitions and group size (cf. the quick-check
		// tolerance in core).
		g.slack += 1e-4 * float64(cp.Int["r"]*cs.Procs*cs.Threads)
		wantSum[g.want] += w
	}
	sort.Strings(names)
	for _, name := range names {
		g := byName[name]
		tol := opt.AbsTol + opt.RelTol*g.expected + g.slack + extraSlack
		measured := pathWait(rep.Get(g.want), name)
		if diff := measured - g.expected; diff > tol || -diff > tol {
			vs = append(vs, Violation{
				Axis: AxisPositive, Property: name,
				Detail: fmt.Sprintf("%s localized at %s: wait %.6f, closed form %.6f (tol %.6f)",
					g.want, name, measured, g.expected, tol),
			})
		}
	}
	// Ranking: an analyzer property whose expected wait is clearly above
	// the significance threshold must appear in the significant findings.
	wants := make([]string, 0, len(wantSum))
	for w := range wantSum {
		wants = append(wants, w)
	}
	sort.Strings(wants)
	for _, want := range wants {
		if rep.TotalTime <= 0 {
			break
		}
		if wantSum[want]-extraSlack > 2*cs.Threshold*rep.TotalTime &&
			rep.Severity(want) < rep.Threshold {
			vs = append(vs, Violation{
				Axis: AxisPositive, Property: want,
				Detail: fmt.Sprintf("expected severity %.4f (wait %.6f) not reported significant (threshold %.4f)",
					wantSum[want]/rep.TotalTime, wantSum[want], rep.Threshold),
			})
		}
	}
	return vs
}

// checkNegative verifies that no analyzer property outside the injected
// set (plus documented companions and info metrics) accumulates waiting
// above the noise floor (the configured floor, or the calibrated one
// under perturbation).
func checkNegative(cs Case, rep *analyzer.Report, floor float64) []Violation {
	allowed := make(map[string]bool)
	for _, cp := range cs.Props {
		allowed[analyzer.ExpectedDetection[cp.Name]] = true
		for _, c := range companions[cp.Name] {
			allowed[c] = true
		}
		// Dynamically registered properties (ASL scenarios) carry their
		// companion allowances on the spec itself.
		if spec, ok := core.Get(cp.Name); ok {
			for _, c := range spec.Companions {
				allowed[c] = true
			}
		}
	}
	var vs []Violation
	for _, prop := range rep.Properties() {
		if analyzer.IsInfo(prop) || allowed[prop] {
			continue
		}
		if w := waitOutsideSeparators(rep.Get(prop)); w > floor {
			vs = append(vs, Violation{
				Axis: AxisNegative, Property: prop,
				Detail: fmt.Sprintf("spurious wait %.6f above noise floor %.6f", w, floor),
			})
		}
	}
	return vs
}

// waitOutsideSeparators sums a result's wait excluding call paths under
// the harness's separator barriers (see sepRegion).
func waitOutsideSeparators(r *analyzer.Result) float64 {
	if r == nil {
		return 0
	}
	paths := make([]string, 0, len(r.ByPath))
	for p := range r.ByPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var sum float64
	for _, p := range paths {
		if !containsSegment(p, sepRegion) {
			sum += r.ByPath[p]
		}
	}
	return sum
}
