// Package asl implements a compact subset of the APART Specification
// Language.  The paper grounds the ATS in ASL: "During the first phase of
// the APART working group, ASL, a specification language for describing
// performance properties was developed [7].  A performance property
// characterizes a specific type of performance behavior … Performance
// properties have a severity associated with them" (§1).  The ATS
// property catalog is the ASL catalog made executable.
//
// This package closes the loop in the other direction: users can define
// *custom* performance properties as ASL-style declarations evaluated
// over the metrics of an analyzed trace, and check synthetic test
// programs against them.  The supported form is
//
//	property <name> {
//	    condition <boolean expression>;
//	    severity  <numeric expression>;
//	}
//
// with expressions over numbers, the usual arithmetic/comparison/logical
// operators, and the metric functions
//
//	wait("prop")          accumulated waiting seconds of a detected property
//	severity("prop")      its severity fraction
//	instances("prop")     its compound-event count
//	region_time("name")   aggregate inclusive seconds of a trace region
//	region_count("name")  aggregate visit count of a trace region
//	total_time()          total resource time (severity denominator)
//	duration()            trace wall span
//	locations()           number of execution locations
//	msg_count()           point-to-point messages sent
//	msg_bytes()           their total payload volume
//	msg_avg_bytes()       average message size
//	msg_rate()            messages per second of trace span
//
// Example — an ASL-style restatement of the late-sender property:
//
//	property dominant_late_sender {
//	    condition severity("late_sender") > 0.05 &&
//	              wait("late_sender") > 2 * wait("late_receiver");
//	    severity  severity("late_sender");
//	}
package asl

import (
	"fmt"
	"math"

	"repro/internal/analyzer"
)

// MetricFuncs lists the metric functions available in property
// expressions, in the order documented in doc/ASL.md.  The first five
// take one string argument; the rest take none.
var MetricFuncs = []string{
	"wait", "severity", "instances", "region_time", "region_count",
	"total_time", "duration", "locations",
	"msg_count", "msg_bytes", "msg_avg_bytes", "msg_rate",
}

// Metrics exposes the measurable quantities expressions may reference.
type Metrics struct {
	rep *analyzer.Report
}

// FromReport wraps an analysis report as an expression environment.
func FromReport(rep *analyzer.Report) *Metrics {
	return &Metrics{rep: rep}
}

// call evaluates a metric function.
func (m *Metrics) call(name string, args []value) (value, error) {
	needStr := func() (string, error) {
		if len(args) != 1 || !args[0].isStr {
			return "", fmt.Errorf("asl: %s expects one string argument", name)
		}
		return args[0].s, nil
	}
	needNone := func() error {
		if len(args) != 0 {
			return fmt.Errorf("asl: %s expects no arguments", name)
		}
		return nil
	}
	switch name {
	case "wait":
		s, err := needStr()
		if err != nil {
			return value{}, err
		}
		return num(m.rep.Wait(s)), nil
	case "severity":
		s, err := needStr()
		if err != nil {
			return value{}, err
		}
		return num(m.rep.Severity(s)), nil
	case "instances":
		s, err := needStr()
		if err != nil {
			return value{}, err
		}
		if r := m.rep.Get(s); r != nil {
			return num(float64(r.Instances)), nil
		}
		return num(0), nil
	case "region_time":
		s, err := needStr()
		if err != nil {
			return value{}, err
		}
		return num(m.rep.Stats.RegionInclusive(s)), nil
	case "region_count":
		s, err := needStr()
		if err != nil {
			return value{}, err
		}
		return num(float64(m.rep.Stats.RegionCount(s))), nil
	case "total_time":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(m.rep.TotalTime), nil
	case "duration":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(m.rep.Duration), nil
	case "locations":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(float64(len(m.rep.Stats.PerLocation))), nil
	case "msg_count":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(float64(m.rep.Messages.Count)), nil
	case "msg_bytes":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(float64(m.rep.Messages.Bytes)), nil
	case "msg_avg_bytes":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(m.rep.Messages.AvgBytes), nil
	case "msg_rate":
		if err := needNone(); err != nil {
			return value{}, err
		}
		return num(m.rep.Messages.Rate), nil
	default:
		return value{}, fmt.Errorf("asl: unknown function %q", name)
	}
}

// lookup rejects bare identifiers: property expressions reference metrics
// through calls only.  (Identifiers never parse in property context, so
// this is defense in depth for the evalEnv contract.)
func (m *Metrics) lookup(name string) (value, error) {
	return value{}, fmt.Errorf("asl: unknown identifier %q", name)
}

// value is a runtime value: a number, boolean, or string literal.
type value struct {
	f     float64
	b     bool
	s     string
	isStr bool
	isNum bool
}

func num(f float64) value { return value{f: f, isNum: true} }
func boolV(b bool) value  { return value{b: b} }
func strV(s string) value { return value{s: s, isStr: true} }
func (v value) kind() string {
	switch {
	case v.isStr:
		return "string"
	case v.isNum:
		return "number"
	default:
		return "boolean"
	}
}

// Property is one parsed ASL property definition.
type Property struct {
	Name      string
	condition node
	severity  node
	nameTok   token
}

// Finding is the evaluation result of one property.
type Finding struct {
	Name     string
	Holds    bool
	Severity float64
}

// Eval evaluates the property against the metrics.
func (p *Property) Eval(m *Metrics) (Finding, error) {
	f := Finding{Name: p.Name}
	cv, err := p.condition.eval(m)
	if err != nil {
		return f, fmt.Errorf("asl: property %s condition: %w", p.Name, err)
	}
	if cv.isNum || cv.isStr {
		return f, fmt.Errorf("asl: property %s condition is not boolean", p.Name)
	}
	f.Holds = cv.b
	sv, err := p.severity.eval(m)
	if err != nil {
		return f, fmt.Errorf("asl: property %s severity: %w", p.Name, err)
	}
	if !sv.isNum {
		return f, fmt.Errorf("asl: property %s severity is not numeric", p.Name)
	}
	f.Severity = sv.f
	if math.IsNaN(f.Severity) || math.IsInf(f.Severity, 0) {
		f.Severity = 0
	}
	return f, nil
}

// EvalAll parses src and evaluates every property over a report.
func EvalAll(src string, rep *analyzer.Report) ([]Finding, error) {
	props, err := Parse(src)
	if err != nil {
		return nil, err
	}
	m := FromReport(rep)
	out := make([]Finding, 0, len(props))
	for _, p := range props {
		f, err := p.Eval(m)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
