package generator

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/campaign"
	"repro/internal/core"
)

// SweepPoint is one experiment configuration: the property arguments plus
// the parallel environment size.
type SweepPoint struct {
	Label   string
	Args    core.Args
	Procs   int
	Threads int
}

// SweepResult records the outcome of one experiment.
type SweepResult struct {
	Point SweepPoint
	// Detected is the analyzer property expected for this function.
	Detected string
	// Wait is the measured accumulated waiting time of that property.
	Wait float64
	// Severity is the measured severity.
	Severity float64
	// Expected is the theoretical waiting time (negative if no closed
	// form exists).
	Expected float64
	// TopProperty is the analyzer's highest-ranked significant finding
	// ("" if the program analyzed clean).
	TopProperty string
}

// Sweep runs a property function over a series of experiment points —
// the "more extensive experiments … executed through scripting languages
// or automatic experiment management systems such as ZENTURIO" of §3.2.
// Points run concurrently on the campaign pool (each owns a fresh world in
// virtual time); results keep the order of points.
func Sweep(name string, points []SweepPoint) ([]SweepResult, error) {
	spec, ok := core.Get(name)
	if !ok {
		return nil, fmt.Errorf("generator: unknown property %q", name)
	}
	want := spec.Detects
	out, err := campaign.Run(len(points), campaign.Options{}, func(i int) (SweepResult, error) {
		pt := points[i]
		tr, err := spec.Exec(pt.Procs, pt.Threads, pt.Args, nil)
		if err != nil {
			return SweepResult{}, fmt.Errorf("generator: point %q: %w", pt.Label, err)
		}
		rep := analyzer.Analyze(tr, analyzer.Options{})
		res := SweepResult{
			Point:    pt,
			Detected: want,
			Wait:     rep.Wait(want),
			Severity: rep.Severity(want),
			Expected: spec.ExpectedWait(pt.Procs, pt.Threads, pt.Args),
		}
		if top := rep.Top(); top != nil {
			res.TopProperty = top.Property
		}
		return res, nil
	})
	if err != nil {
		var ce *campaign.Error
		if errors.As(err, &ce) {
			return nil, ce.Err // surface the point's own error text
		}
		return nil, err
	}
	return out, nil
}

// GridFloat builds sweep points varying one float parameter over values,
// holding everything else at the spec defaults.
func GridFloat(spec *core.Spec, param string, values []float64, procs, threads int) []SweepPoint {
	var pts []SweepPoint
	for _, v := range values {
		a := spec.Defaults()
		a.Float[param] = v
		pts = append(pts, SweepPoint{
			Label:   fmt.Sprintf("%s=%g", param, v),
			Args:    a,
			Procs:   procs,
			Threads: threads,
		})
	}
	return pts
}

// GridDistr builds sweep points varying the distribution function of a
// distribution parameter, holding its descriptor values at the defaults.
func GridDistr(spec *core.Spec, param string, names []string, procs, threads int) []SweepPoint {
	var pts []SweepPoint
	for _, n := range names {
		a := spec.Defaults()
		ds := a.Distr[param]
		ds.Name = n
		a.Distr[param] = ds
		pts = append(pts, SweepPoint{
			Label:   fmt.Sprintf("%s=%s", param, n),
			Args:    a,
			Procs:   procs,
			Threads: threads,
		})
	}
	return pts
}

// FormatSweep renders sweep results as an aligned table.
func FormatSweep(name string, rs []SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %s\n", name)
	fmt.Fprintf(&b, "%-24s %6s %8s %12s %12s %10s %s\n",
		"point", "procs", "threads", "wait(s)", "expected(s)", "severity", "top finding")
	for _, r := range rs {
		exp := "n/a"
		if r.Expected >= 0 {
			exp = fmt.Sprintf("%.6f", r.Expected)
		}
		fmt.Fprintf(&b, "%-24s %6d %8d %12.6f %12s %9.2f%% %s\n",
			r.Point.Label, r.Point.Procs, r.Point.Threads,
			r.Wait, exp, r.Severity*100, r.TopProperty)
	}
	return b.String()
}
