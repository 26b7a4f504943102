// Scenario definitions: the property-*defining* half of the ASL subset.
//
// A `property` declaration (asl.go) evaluates metrics of an existing
// analysis report.  A `scenario` declaration goes the other way: it
// *defines* a new synthetic performance property — an injection pattern
// built from a fixed vocabulary of trace-shaping primitives, a closed-form
// severity expression over the scenario's parameters, and a localization
// claim — and compiles into a core.Spec registration indistinguishable
// from the built-in property functions.  Registered scenarios flow through
// the program generator, the parameter sweeps, the conformance oracle and
// the fuzzer without any of those layers knowing the property was defined
// in ASL rather than Go.  doc/ASL.md is the normative reference.

package asl

import (
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/distr"
	"repro/internal/mpi"
)

// ScenarioParam is one declared scenario parameter.
type ScenarioParam struct {
	Name string
	Kind string // "float", "int", "rank" or "distr"
	Help string

	DefFloat float64
	DefInt   int
	DefDistr core.DistrSpec

	// Fuzz range from an `in [lo, hi]` clause; absent a clause the
	// core-style defaults apply (float: def/10..def*2, int: 1..def).
	MinFloat, MaxFloat float64
	MinInt, MaxInt     int
	hasRange           bool
}

// injectStmt is one `inject primitive(args...)` statement.
type injectStmt struct {
	prim *primitive
	name string
	args []node
	tok  token
}

// Scenario is one parsed and compiled scenario definition.
type Scenario struct {
	Name string
	Help string
	// Detects is the analyzer property the scenario's severity closed form
	// claims (defaults to the first primitive's detection).
	Detects string
	// Localize is the claimed localization region: the trace region the
	// detected wait must be attributed under.  It defaults to the scenario
	// name; a distinct name adds a nested region inside the scenario's own.
	Localize string
	// Companions are analyzer properties legitimately co-produced by
	// secondary primitives (negative-axis allowances, cf. core.Spec).
	Companions []string
	Params     []ScenarioParam
	// Src is the scenario's own source text (for re-registration in
	// generated programs).
	Src string

	injects  []injectStmt
	severity node
	nameTok  token
	spec     *core.Spec
}

// Spec returns the compiled core registration of the scenario.
func (sc *Scenario) Spec() *core.Spec { return sc.spec }

// Injection primitives ------------------------------------------------------

type primKind uint8

const (
	primFloat primKind = iota
	primInt
	primDistr
)

func (k primKind) String() string {
	switch k {
	case primFloat:
		return "float"
	case primInt:
		return "int"
	default:
		return "distr"
	}
}

// primArg declares one positional parameter of a primitive.
type primArg struct {
	name string
	kind primKind
	help string
}

// primVal is one evaluated primitive argument.
type primVal struct {
	f  float64
	i  int
	ds core.DistrSpec
}

// primitive is one entry of the fixed trace-shaping vocabulary.
type primitive struct {
	name string
	// detects is the analyzer property the primitive injects ("" for
	// shape-only primitives like ramp_send that induce no waiting).
	detects string
	help    string
	params  []primArg
	run     func(c *mpi.Comm, args []primVal)
}

// Primitives returns the injection vocabulary sorted by name — the single
// source doc/ASL.md's primitive table is drift-checked against.
func Primitives() []PrimitiveInfo {
	out := make([]PrimitiveInfo, 0, len(primitives))
	for _, name := range primitiveOrder {
		p := primitives[name]
		sig := make([]string, len(p.params))
		for i, a := range p.params {
			sig[i] = a.name + " " + a.kind.String()
		}
		out = append(out, PrimitiveInfo{
			Name: p.name, Detects: p.detects, Help: p.help, Params: sig,
		})
	}
	return out
}

// PrimitiveInfo describes one injection primitive for documentation and
// introspection.
type PrimitiveInfo struct {
	Name    string
	Detects string // analyzer property; "" if none
	Help    string
	Params  []string // "name kind" per positional parameter
}

var primitiveOrder = []string{"delayed_send", "imbalanced_work", "ramp_send", "skewed_barrier"}

var primitives = map[string]*primitive{
	"delayed_send": {
		name:    "delayed_send",
		detects: analyzer.PropLateSender,
		help:    "even ranks work base+extra then send, odd ranks work base then receive: every receive blocks extra seconds",
		params: []primArg{
			{"base", primFloat, "base work per iteration [s]"},
			{"extra", primFloat, "extra work of the sending (even) ranks [s]"},
			{"r", primInt, "repetitions"},
		},
		run: func(c *mpi.Comm, args []primVal) {
			base, extra, r := args[0].f, args[1].f, args[2].i
			buf := c.BaseBuf()
			defer mpi.FreeBuf(buf)
			dd := distr.Val2{Low: base + extra, High: base}
			for i := 0; i < r; i++ {
				c.DoWork(distr.Cyclic2, dd, 1.0)
				mpi.PatternSendRecv(c, buf, mpi.DirUp, mpi.PatternOpts{})
			}
		},
	},
	"skewed_barrier": {
		name:    "skewed_barrier",
		detects: analyzer.PropWaitAtBarrier,
		help:    "distribution-driven work skew in front of MPI_Barrier",
		params: []primArg{
			{"work", primDistr, "per-rank work distribution [s]"},
			{"r", primInt, "repetitions"},
		},
		run: func(c *mpi.Comm, args []primVal) {
			df, dd := resolveDistr(args[0].ds)
			r := args[1].i
			for i := 0; i < r; i++ {
				c.DoWork(df, dd, 1.0)
				c.Barrier()
			}
		},
	},
	"imbalanced_work": {
		name:    "imbalanced_work",
		detects: analyzer.PropWaitAtNxN,
		help:    "distribution-driven work skew in front of a synchronizing MPI_Allreduce",
		params: []primArg{
			{"work", primDistr, "per-rank work distribution [s]"},
			{"r", primInt, "repetitions"},
		},
		run: func(c *mpi.Comm, args []primVal) {
			df, dd := resolveDistr(args[0].ds)
			r := args[1].i
			sbuf := c.BaseBuf()
			rbuf := c.BaseBuf()
			defer mpi.FreeBuf(sbuf)
			defer mpi.FreeBuf(rbuf)
			for i := 0; i < r; i++ {
				c.DoWork(df, dd, 1.0)
				c.Allreduce(sbuf, rbuf, mpi.OpSum)
			}
		},
	},
	"ramp_send": {
		name:    "ramp_send",
		detects: "",
		help:    "balanced even-odd exchange with linearly growing message sizes (shapes message statistics, induces no waiting)",
		params: []primArg{
			{"minbytes", primInt, "first message payload [bytes]"},
			{"maxbytes", primInt, "last message payload [bytes]"},
			{"r", primInt, "number of messages per pair"},
		},
		run: func(c *mpi.Comm, args []primVal) {
			minb, maxb, r := args[0].i, args[1].i, args[2].i
			if minb < 1 {
				minb = 1
			}
			if maxb < minb {
				maxb = minb
			}
			for i := 0; i < r; i++ {
				sz := minb
				if r > 1 {
					sz += (maxb - minb) * i / (r - 1)
				}
				buf := mpi.AllocBuf(mpi.TypeByte, sz)
				mpi.PatternSendRecv(c, buf, mpi.DirUp, mpi.PatternOpts{})
				mpi.FreeBuf(buf)
			}
		},
	},
}

func resolveDistr(ds core.DistrSpec) (distr.Func, distr.Desc) {
	df, dd, err := ds.Resolve()
	if err != nil {
		// compile() resolved the default and run-time specs come from
		// validated cases; reaching this is a harness bug.
		panic(fmt.Sprintf("asl: unresolvable distribution %q: %v", ds.Name, err))
	}
	return df, dd
}

// Scenario parsing ----------------------------------------------------------

// scenario parses one scenario definition (the `scenario` keyword is the
// current token).  Semantic validation happens in compile().
func (p *parser) scenario() (*Scenario, error) {
	startTok := p.next() // the "scenario" keyword
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, errAt(nameTok, "expected scenario name, got %s", tokDesc(nameTok))
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sc := &Scenario{Name: nameTok.text, nameTok: nameTok}
	p.identOK = true
	defer func() { p.identOK = false }()
	for {
		t := p.cur()
		if t.kind == tokPunct && t.text == "}" {
			end := p.next()
			sc.Src = p.src[startTok.pos : end.pos+1]
			break
		}
		if t.kind != tokIdent {
			return nil, errAt(t, "expected clause, got %s", tokDesc(t))
		}
		switch t.text {
		case "help":
			p.next()
			s := p.next()
			if s.kind != tokString {
				return nil, errAt(s, "help expects a string, got %s", tokDesc(s))
			}
			sc.Help = s.text
		case "param":
			p.next()
			sp, err := p.scenarioParam(sc)
			if err != nil {
				return nil, err
			}
			sc.Params = append(sc.Params, *sp)
		case "inject":
			p.next()
			inj, err := p.injectStmt()
			if err != nil {
				return nil, err
			}
			sc.injects = append(sc.injects, *inj)
		case "detects":
			p.next()
			s := p.next()
			if s.kind != tokString {
				return nil, errAt(s, "detects expects a string, got %s", tokDesc(s))
			}
			if sc.Detects != "" {
				return nil, errAt(t, "scenario %s: duplicate detects", sc.Name)
			}
			sc.Detects = s.text
		case "localize":
			p.next()
			s := p.next()
			if s.kind != tokString {
				return nil, errAt(s, "localize expects a string, got %s", tokDesc(s))
			}
			if sc.Localize != "" {
				return nil, errAt(t, "scenario %s: duplicate localize", sc.Name)
			}
			sc.Localize = s.text
		case "severity":
			p.next()
			n, err := p.expr()
			if err != nil {
				return nil, err
			}
			if sc.severity != nil {
				return nil, errAt(t, "scenario %s: duplicate severity", sc.Name)
			}
			sc.severity = n
		default:
			return nil, errAt(t, "unknown clause %q", t.text)
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// scenarioParam parses `param name kind = default [in [lo, hi]]` (the
// `param` keyword is consumed).
func (p *parser) scenarioParam(sc *Scenario) (*ScenarioParam, error) {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, errAt(nameTok, "expected parameter name, got %s", tokDesc(nameTok))
	}
	kindTok := p.next()
	if kindTok.kind != tokIdent {
		return nil, errAt(kindTok, "expected parameter kind, got %s", tokDesc(kindTok))
	}
	sp := &ScenarioParam{Name: nameTok.text, Kind: kindTok.text}
	switch kindTok.text {
	case "float", "int", "rank", "distr":
	default:
		return nil, errAt(kindTok, "unknown parameter kind %q (want float, int, rank or distr)", kindTok.text)
	}
	for _, prev := range sc.Params {
		if prev.Name == sp.Name {
			return nil, errAt(nameTok, "scenario %s: duplicate parameter %q", sc.Name, sp.Name)
		}
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case "float":
		f, err := p.signedNumber()
		if err != nil {
			return nil, err
		}
		sp.DefFloat = f
	case "int", "rank":
		f, err := p.signedNumber()
		if err != nil {
			return nil, err
		}
		if f != math.Trunc(f) {
			return nil, errAt(nameTok, "parameter %q: %s default must be an integer", sp.Name, sp.Kind)
		}
		sp.DefInt = int(f)
	case "distr":
		ds, err := p.distrLiteral()
		if err != nil {
			return nil, err
		}
		sp.DefDistr = *ds
	}
	if t := p.cur(); t.kind == tokIdent && t.text == "in" {
		if sp.Kind == "distr" || sp.Kind == "rank" {
			return nil, errAt(t, "parameter %q: %s parameters take no range", sp.Name, sp.Kind)
		}
		p.next()
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		lo, err := p.signedNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		hi, err := p.signedNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, errAt(t, "parameter %q: range [%g, %g] is inverted", sp.Name, lo, hi)
		}
		sp.hasRange = true
		sp.MinFloat, sp.MaxFloat = lo, hi
		sp.MinInt, sp.MaxInt = int(lo), int(hi)
	}
	return sp, nil
}

// signedNumber parses a numeric literal with an optional leading minus.
func (p *parser) signedNumber() (float64, error) {
	neg := false
	if t := p.cur(); t.kind == tokPunct && t.text == "-" {
		p.next()
		neg = true
	}
	t := p.next()
	if t.kind != tokNumber {
		return 0, errAt(t, "expected number, got %s", tokDesc(t))
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, errAt(t, "bad number %q", t.text)
	}
	if neg {
		f = -f
	}
	return f, nil
}

// distrLiteral parses `name(low [, high [, med [, n]]])` into a DistrSpec.
func (p *parser) distrLiteral() (*core.DistrSpec, error) {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, errAt(nameTok, "expected distribution name, got %s", tokDesc(nameTok))
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var vals []float64
	for {
		f, err := p.signedNumber()
		if err != nil {
			return nil, err
		}
		vals = append(vals, f)
		if t := p.cur(); t.kind == tokPunct && t.text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(vals) > 4 {
		return nil, errAt(nameTok, "distribution %q: at most 4 descriptor values (low, high, med, n)", nameTok.text)
	}
	ds := &core.DistrSpec{Name: nameTok.text}
	if len(vals) > 0 {
		ds.Low = vals[0]
	}
	if len(vals) > 1 {
		ds.High = vals[1]
	}
	if len(vals) > 2 {
		ds.Med = vals[2]
	}
	if len(vals) > 3 {
		ds.N = int(vals[3])
	}
	if _, _, err := ds.Resolve(); err != nil {
		return nil, errAt(nameTok, "%v", err)
	}
	return ds, nil
}

// injectStmt parses `primitive(arg, ...)` (the `inject` keyword is
// consumed).  Arguments are full expressions over scenario parameters.
func (p *parser) injectStmt() (*injectStmt, error) {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, errAt(nameTok, "expected primitive name, got %s", tokDesc(nameTok))
	}
	prim, ok := primitives[nameTok.text]
	if !ok {
		return nil, errAt(nameTok, "unknown primitive %q (want one of %v)", nameTok.text, primitiveOrder)
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	inj := &injectStmt{prim: prim, name: nameTok.text, tok: nameTok}
	if !(p.cur().kind == tokPunct && p.cur().text == ")") {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			inj.args = append(inj.args, a)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(inj.args) != len(prim.params) {
		return nil, errAt(nameTok, "primitive %s takes %d arguments, got %d",
			prim.name, len(prim.params), len(inj.args))
	}
	return inj, nil
}

// Compilation ---------------------------------------------------------------

// compile validates the scenario semantically and builds its core.Spec.
func (sc *Scenario) compile() error {
	if len(sc.injects) == 0 {
		return errAt(sc.nameTok, "scenario %s: missing inject", sc.Name)
	}
	if sc.severity == nil {
		return errAt(sc.nameTok, "scenario %s: missing severity (the closed-form expected wait)", sc.Name)
	}
	// Resolve the detection claim and the companion set.
	detections := map[string]bool{}
	for _, inj := range sc.injects {
		if inj.prim.detects != "" {
			detections[inj.prim.detects] = true
		}
		if sc.Detects == "" {
			sc.Detects = inj.prim.detects
		}
	}
	if sc.Detects == "" {
		return errAt(sc.nameTok, "scenario %s: no primitive injects a detectable property (declare detects or add one)", sc.Name)
	}
	if !detections[sc.Detects] {
		return errAt(sc.nameTok, "scenario %s: detects %q, but no primitive injects it", sc.Name, sc.Detects)
	}
	for _, inj := range sc.injects {
		if d := inj.prim.detects; d != "" && d != sc.Detects && !containsStr(sc.Companions, d) {
			sc.Companions = append(sc.Companions, d)
		}
	}
	if sc.Localize == "" {
		sc.Localize = sc.Name
	}

	// Type-check the inject arguments structurally: distr slots must be a
	// bare reference to a distr parameter.
	for _, inj := range sc.injects {
		for i, pa := range inj.prim.params {
			if pa.kind != primDistr {
				continue
			}
			id, ok := inj.args[i].(*ident)
			if !ok {
				return errAt(inj.tok, "primitive %s: argument %q must name a distr parameter", inj.name, pa.name)
			}
			if sp := sc.param(id.name); sp == nil || sp.Kind != "distr" {
				return errAt(id.tok, "primitive %s: %q is not a distr parameter", inj.name, id.name)
			}
		}
	}

	spec := &core.Spec{
		Name:       sc.Name,
		Paradigm:   core.ParadigmMPI,
		Help:       sc.Help,
		Detects:    sc.Detects,
		Companions: append([]string(nil), sc.Companions...),
		ASL:        sc.Src,
		Params:     make([]core.Param, 0, len(sc.Params)),
	}
	if spec.Help == "" {
		spec.Help = "ASL-defined scenario"
	}
	for _, sp := range sc.Params {
		spec.Params = append(spec.Params, sp.coreParam())
	}
	spec.Run = func(env core.Env, a core.Args) { sc.run(env, a) }
	spec.ExpectedWait = func(procs, threads int, a core.Args) float64 {
		e := &paramEnv{sc: sc, args: a, procs: procs, threads: threads}
		v, err := sc.severity.eval(e)
		if err != nil || !v.isNum || math.IsNaN(v.f) || math.IsInf(v.f, 0) {
			return -1
		}
		return v.f
	}

	// Trial evaluation against the defaults catches every remaining
	// semantic error (unknown parameter references, type mismatches,
	// unknown closed-form functions) at parse time rather than mid-run.
	trial := &paramEnv{sc: sc, args: spec.Defaults(), procs: 2, threads: 1}
	for _, inj := range sc.injects {
		if _, err := inj.evalArgs(trial); err != nil {
			return fmt.Errorf("%w (in scenario %s, inject %s at line %d:%d)",
				err, sc.Name, inj.name, inj.tok.line, inj.tok.col)
		}
	}
	if v, err := sc.severity.eval(trial); err != nil {
		return fmt.Errorf("%w (in scenario %s severity)", err, sc.Name)
	} else if !v.isNum {
		return errAt(sc.nameTok, "scenario %s: severity is not numeric", sc.Name)
	}
	sc.spec = spec
	return nil
}

func (sc *Scenario) param(name string) *ScenarioParam {
	for i := range sc.Params {
		if sc.Params[i].Name == name {
			return &sc.Params[i]
		}
	}
	return nil
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// coreParam maps the scenario parameter onto the registry's metadata,
// deriving the core-style fuzz range when no `in` clause was given.
func (sp ScenarioParam) coreParam() core.Param {
	cp := core.Param{Name: sp.Name, Help: sp.Help}
	if cp.Help == "" {
		cp.Help = "scenario parameter " + sp.Name
	}
	switch sp.Kind {
	case "float":
		cp.Kind = core.ParamFloat
		cp.DefFloat = sp.DefFloat
		if sp.hasRange {
			cp.MinFloat, cp.MaxFloat = sp.MinFloat, sp.MaxFloat
		} else {
			cp.MinFloat, cp.MaxFloat = sp.DefFloat/10, sp.DefFloat*2
		}
	case "int":
		cp.Kind = core.ParamInt
		cp.DefInt = sp.DefInt
		if sp.hasRange {
			cp.MinInt, cp.MaxInt = sp.MinInt, sp.MaxInt
		} else {
			cp.MinInt = 1
			cp.MaxInt = sp.DefInt
			if cp.MaxInt < 1 {
				cp.MaxInt = 1
			}
		}
	case "rank":
		cp.Kind = core.ParamInt
		cp.DefInt = sp.DefInt
		cp.Rank = true
	case "distr":
		cp.Kind = core.ParamDistr
		cp.DefDistr = sp.DefDistr
	}
	return cp
}

// run executes the scenario's injection sequence: the scenario's own trace
// region (its localization root), the declared localize region when it
// differs, then each primitive inside a region named after it.
func (sc *Scenario) run(env core.Env, a core.Args) {
	c := env.Comm
	c.Begin(sc.Name)
	defer c.End()
	if sc.Localize != sc.Name {
		c.Begin(sc.Localize)
		defer c.End()
	}
	e := &paramEnv{sc: sc, args: a, procs: c.Size(), threads: env.OMP.Threads}
	for _, inj := range sc.injects {
		vals, err := inj.evalArgs(e)
		if err != nil {
			// compile() trial-evaluated every expression; a failure here is
			// a harness bug and must fail loudly, not silently skew waits.
			panic(fmt.Sprintf("asl: scenario %s: %v", sc.Name, err))
		}
		c.Begin(inj.name)
		inj.prim.run(c, vals)
		c.End()
	}
}

// evalArgs evaluates the inject arguments against e, coercing each to its
// declared primitive slot.
func (inj *injectStmt) evalArgs(e *paramEnv) ([]primVal, error) {
	vals := make([]primVal, len(inj.args))
	for i, pa := range inj.prim.params {
		if pa.kind == primDistr {
			id := inj.args[i].(*ident) // structurally checked by compile
			vals[i] = primVal{ds: e.args.Distr[id.name]}
			continue
		}
		v, err := inj.args[i].eval(e)
		if err != nil {
			return nil, err
		}
		if !v.isNum {
			return nil, fmt.Errorf("asl: primitive %s: argument %q is %s, want number",
				inj.name, pa.name, v.kind())
		}
		switch pa.kind {
		case primFloat:
			vals[i] = primVal{f: v.f}
		case primInt:
			vals[i] = primVal{i: int(math.Round(v.f))}
		}
	}
	return vals, nil
}

// paramEnv -------------------------------------------------------------------

// paramEnv evaluates scenario expressions: identifiers resolve to the
// invocation's parameter values and calls dispatch to the closed-form
// helper functions (doc/ASL.md, "Closed-form helpers").
type paramEnv struct {
	sc      *Scenario
	args    core.Args
	procs   int
	threads int
}

func (e *paramEnv) lookup(name string) (value, error) {
	if v, ok := e.args.Float[name]; ok {
		return num(v), nil
	}
	if v, ok := e.args.Int[name]; ok {
		return num(float64(v)), nil
	}
	if _, ok := e.args.Distr[name]; ok {
		// Distr parameters evaluate to their own name so that
		// imbalance(work) can resolve the invocation's spec.
		return strV(name), nil
	}
	return value{}, fmt.Errorf("asl: scenario %s: unknown parameter %q", e.sc.Name, name)
}

// ParamFuncs lists the closed-form helper functions available in scenario
// expressions (severity, inject arguments) — the table doc/ASL.md is
// drift-checked against.
var ParamFuncs = []string{
	"abs", "ceil", "floor", "imbalance", "max", "min", "ranks", "sqrt", "threads",
}

func (e *paramEnv) call(name string, args []value) (value, error) {
	needNums := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("asl: %s expects %d argument(s), got %d", name, n, len(args))
		}
		for _, a := range args {
			if !a.isNum {
				return fmt.Errorf("asl: %s expects numeric arguments, got %s", name, a.kind())
			}
		}
		return nil
	}
	switch name {
	case "ranks":
		if len(args) != 0 {
			return value{}, fmt.Errorf("asl: ranks expects no arguments")
		}
		return num(float64(e.procs)), nil
	case "threads":
		if len(args) != 0 {
			return value{}, fmt.Errorf("asl: threads expects no arguments")
		}
		return num(float64(e.threads)), nil
	case "imbalance":
		if len(args) != 1 || !args[0].isStr {
			return value{}, fmt.Errorf("asl: imbalance expects one distr parameter")
		}
		ds, ok := e.args.Distr[args[0].s]
		if !ok {
			return value{}, fmt.Errorf("asl: imbalance: %q is not a distr parameter", args[0].s)
		}
		df, dd, err := ds.Resolve()
		if err != nil {
			return value{}, fmt.Errorf("asl: imbalance(%s): %w", args[0].s, err)
		}
		return num(distr.Imbalance(df, e.procs, 1.0, dd)), nil
	case "floor":
		if err := needNums(1); err != nil {
			return value{}, err
		}
		return num(math.Floor(args[0].f)), nil
	case "ceil":
		if err := needNums(1); err != nil {
			return value{}, err
		}
		return num(math.Ceil(args[0].f)), nil
	case "abs":
		if err := needNums(1); err != nil {
			return value{}, err
		}
		return num(math.Abs(args[0].f)), nil
	case "sqrt":
		if err := needNums(1); err != nil {
			return value{}, err
		}
		return num(math.Sqrt(args[0].f)), nil
	case "min":
		if err := needNums(2); err != nil {
			return value{}, err
		}
		return num(math.Min(args[0].f, args[1].f)), nil
	case "max":
		if err := needNums(2); err != nil {
			return value{}, err
		}
		return num(math.Max(args[0].f, args[1].f)), nil
	default:
		return value{}, fmt.Errorf("asl: unknown function %q in scenario expression", name)
	}
}

// Registration ---------------------------------------------------------------

// RegisterSource parses src, compiles every scenario in it and registers
// each with the core property registry — the compiled spec carries the
// scenario's detection claim and companions — opening them to the
// generator, the sweeps, the conformance oracle and the fuzzer.  It
// returns the registered names; on any error the registry is left exactly
// as before the call.
func RegisterSource(src string) ([]string, error) {
	f, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, sc := range f.Scenarios {
		if err := core.Register(sc.spec); err != nil {
			Unregister(names...)
			return nil, err
		}
		names = append(names, sc.Name)
	}
	return names, nil
}

// RegisterFile reads an ASL file and registers its scenarios.
func RegisterFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	names, err := RegisterSource(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return names, nil
}

// Unregister removes scenarios previously registered by RegisterSource
// from the core registry, and with them every oracle fact their specs
// carried (test hygiene for dynamically extended registries).
func Unregister(names ...string) {
	for _, n := range names {
		core.Unregister(n)
	}
}
