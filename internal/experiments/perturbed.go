package experiments

import (
	"fmt"
	"io"

	"repro/internal/analyzer"
	"repro/internal/campaign"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/perturb"
	"repro/internal/rescache"
	"repro/internal/trace"
	"repro/internal/xctx"
)

// PerturbedNegativeRow is one (perturbation level × program) cell of the
// perturbed negative-correctness table.
type PerturbedNegativeRow struct {
	Level       int
	Program     string
	TopProperty string  // "" when no significant finding
	TopSeverity float64 // severity of the top finding
	MaxWait     float64 // worst waiting time of any non-info property (s)
	Clean       bool    // no significant finding at the default threshold
}

// PerturbedNegativeCorrectness reruns the paper's negative-correctness
// table under a ladder of deterministic perturbation profiles (package
// perturb): the same well-tuned programs, but with clock-rate skew,
// stragglers, message/collective jitter and OS-noise bursts injected into
// the virtual-time engine.  Level 0 must reproduce the unperturbed table;
// higher levels show how quickly "well-tuned" stops being true on a noisy
// machine — the waits the analyzer then reports are real consequences of
// the injected disturbance, which is exactly why robust oracles (package
// conformance) calibrate their noise floor instead of hard-coding it.
// Every run is a pure function of (level, shape), so the table is
// byte-reproducible.
func PerturbedNegativeCorrectness(w io.Writer, procs, threads int, levels []int) ([]PerturbedNegativeRow, error) {
	if len(levels) == 0 {
		levels = []int{0, 1, 2, 3}
	}
	fmt.Fprintln(w, "== negative correctness under deterministic perturbation ==")
	fmt.Fprintf(w, "%-8s %-30s %-28s %10s %12s\n",
		"level", "program", "top finding", "severity", "max wait(s)")

	// The same three well-tuned programs as NegativeCorrectness, with the
	// perturbation model threaded through the run options.
	const perturbSeed = 1
	programs := []struct {
		name string
		run  func(m *perturb.Model) (*trace.Trace, error)
	}{
		{"negative_balanced_mpi", func(m *perturb.Model) (*trace.Trace, error) {
			return mpi.Run(mpi.Options{Procs: procs, Perturb: m}, func(c *mpi.Comm) {
				core.NegativeBalancedMPI(c, 0.02, 10)
			})
		}},
		{"negative_balanced_omp", func(m *perturb.Model) (*trace.Trace, error) {
			return omp.Run(omp.RunOptions{Threads: threads, Perturb: m}, func(ctx *xctx.Ctx, opt omp.Options) {
				core.NegativeBalancedOMP(ctx, opt, 0.02, 10)
			})
		}},
		{"negative_balanced_hybrid", func(m *perturb.Model) (*trace.Trace, error) {
			return mpi.Run(mpi.Options{Procs: procs, Perturb: m}, func(c *mpi.Comm) {
				core.NegativeBalancedHybrid(c, omp.Options{Threads: threads}, 0.02, 5)
			})
		}},
	}

	type cell struct {
		level, prog int
	}
	cells := make([]cell, 0, len(levels)*len(programs))
	for li := range levels {
		for pi := range programs {
			cells = append(cells, cell{level: li, prog: pi})
		}
	}
	var rows []PerturbedNegativeRow

	// Each cell's job computes the finished row — a pure, serializable
	// function of (level, program, shape) — so the sweep is memoized
	// through the process-wide result cache (conformance.SetResultCache):
	// a warm rerun replays the rows without executing a single world.
	// The trace and report ride along unserialized for the profile sink;
	// while a sink is installed the sweep bypasses the cache, because a
	// cache hit cannot re-emit them.
	type outcome struct {
		Row PerturbedNegativeRow `json:"row"`
		tr  *trace.Trace
		rep *analyzer.Report
	}
	var cache campaign.Cache // stays a nil interface without a store
	if s := conformance.ResultCache(); s != nil && profileSink == nil {
		cache = s
	}
	job := func(i int) (outcome, error) {
		c := cells[i]
		lvl := levels[c.level]
		name := programs[c.prog].name
		key, _ := perturbedCellKey(lvl, name, procs, threads, perturbSeed) // "" recomputes
		return campaign.Cached(cache, key, func() (outcome, error) {
			m := perturb.NewModel(perturb.Level(perturbSeed, lvl))
			tr, err := programs[c.prog].run(m)
			if err != nil {
				return outcome{}, fmt.Errorf("%s L%d: %w", name, lvl, err)
			}
			rep := analyzer.Analyze(tr, analyzer.Options{})
			row := PerturbedNegativeRow{Level: lvl, Program: name, Clean: true}
			if top := rep.Top(); top != nil {
				row.TopProperty, row.TopSeverity = top.Property, top.Severity
				row.Clean = false
			}
			for _, prop := range rep.Properties() {
				if analyzer.IsInfo(prop) {
					continue
				}
				if wt := rep.Wait(prop); wt > row.MaxWait {
					row.MaxWait = wt
				}
			}
			return outcome{Row: row, tr: tr, rep: rep}, nil
		})
	}
	err := campaign.Stream(len(cells),
		campaign.Options{},
		job,
		func(i int, oc outcome) error {
			c := cells[i]
			lvl := levels[c.level]
			name := programs[c.prog].name
			emitProfile(fmt.Sprintf("perturbed_negative_L%d_%s", lvl, name), oc.tr, oc.rep)
			row := oc.Row
			verdict := "(clean)"
			if !row.Clean {
				verdict = row.TopProperty
			}
			fmt.Fprintf(w, "L%-7d %-30s %-28s %9.2f%% %12.6f\n",
				lvl, name, verdict, row.TopSeverity*100, row.MaxWait)
			rows = append(rows, row)
			return nil
		})
	if err != nil {
		return nil, unwrapCampaign(err)
	}
	fmt.Fprintln(w, "\n(a finding at level > 0 is a real consequence of the injected disturbance;")
	fmt.Fprintln(w, " robust oracles must widen their noise floor with the level, not go blind)")
	return rows, nil
}

// perturbedKeyDoc is everything one perturbed negative-correctness cell
// depends on besides the versions of the machinery, which the result
// cache stamps on every entry: the sweep coordinates and the shape.
type perturbedKeyDoc struct {
	Kind        string `json:"kind"`
	Level       int    `json:"level"`
	Program     string `json:"program"`
	Procs       int    `json:"procs"`
	Threads     int    `json:"threads"`
	PerturbSeed uint64 `json:"perturb_seed"`
}

// perturbedCellKey derives the content key of one cell of the perturbed
// negative-correctness table.
func perturbedCellKey(level int, program string, procs, threads int, perturbSeed uint64) (string, error) {
	return rescache.Key(perturbedKeyDoc{
		Kind:        "experiments/perturbed_negative",
		Level:       level,
		Program:     program,
		Procs:       procs,
		Threads:     threads,
		PerturbSeed: perturbSeed,
	})
}
