package conformance

import (
	"repro/internal/core"
)

// The shrinker is a ddmin-style minimizer for failing cases: first drop
// injected properties one at a time to a fixpoint, then repeatedly halve
// numeric parameters (floats and repetition counts, plus the spread of
// distribution arguments), keeping every reduction that still fails the
// oracle.  The result is the smallest reproducer the moves can reach —
// what gets written to the corpus for replay.

// clone deep-copies a case so shrink candidates never alias the original.
func (cs Case) clone() Case {
	out := cs
	out.Props = make([]CaseProp, len(cs.Props))
	for i, cp := range cs.Props {
		c := CaseProp{Name: cp.Name}
		if cp.Float != nil {
			c.Float = make(map[string]float64, len(cp.Float))
			for k, v := range cp.Float {
				c.Float[k] = v
			}
		}
		if cp.Int != nil {
			c.Int = make(map[string]int, len(cp.Int))
			for k, v := range cp.Int {
				c.Int[k] = v
			}
		}
		if cp.Distr != nil {
			c.Distr = make(map[string]core.DistrSpec, len(cp.Distr))
			for k, v := range cp.Distr {
				c.Distr[k] = v
			}
		}
		out.Props[i] = c
	}
	return out
}

// stillFailing reports whether the candidate still violates the oracle.
// Execution is enough to decide; the determinism axis is re-checked only
// if the original options ask for it.
func stillFailing(cs Case, opt CheckOptions) bool {
	out, err := Check(cs, opt)
	if err != nil {
		// An ill-formed candidate is not a reproducer of the original
		// failure; reject the move.
		return false
	}
	return !out.OK()
}

// Shrink minimizes a failing case under the given oracle options.  If cs
// does not fail, it is returned unchanged.  Shrinking is deterministic:
// moves are tried in a fixed order.
func Shrink(cs Case, opt CheckOptions) Case {
	opt = opt.withDefaults()
	if !stillFailing(cs, opt) {
		return cs
	}
	cur := cs.clone()

	// Phase 1: drop properties to a fixpoint.
	for len(cur.Props) > 1 {
		dropped := false
		for i := range cur.Props {
			cand := cur.clone()
			cand.Props = append(cand.Props[:i], cand.Props[i+1:]...)
			if stillFailing(cand, opt) {
				cur = cand
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}

	// Phase 2: halve parameters until no move is accepted.
	for pass := 0; pass < 20; pass++ {
		improved := false
		for i := range cur.Props {
			if shrinkProp(&cur, i, opt) {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// shrinkProp tries every halving move on property i, mutating cs in place
// when a move keeps the case failing; reports whether any move landed.
func shrinkProp(cs *Case, i int, opt CheckOptions) bool {
	improved := false
	try := func(mutate func(*CaseProp)) {
		cand := cs.clone()
		mutate(&cand.Props[i])
		if stillFailing(cand, opt) {
			*cs = cand
			improved = true
		}
	}

	for _, k := range sortedKeys(cs.Props[i].Float) {
		k := k
		if v := cs.Props[i].Float[k]; v > 1e-4 {
			try(func(cp *CaseProp) { cp.Float[k] = roundArg(v / 2) })
		}
	}
	for _, k := range sortedKeys(cs.Props[i].Int) {
		k := k
		if v := cs.Props[i].Int[k]; v > 1 {
			try(func(cp *CaseProp) { cp.Int[k] = v / 2 })
		}
	}
	for _, k := range sortedKeys(cs.Props[i].Distr) {
		k := k
		ds := cs.Props[i].Distr[k]
		if spread := ds.High - ds.Low; spread > 1e-4 {
			try(func(cp *CaseProp) {
				d := cp.Distr[k]
				d.High = roundArg(d.Low + spread/2)
				if d.Med > d.High {
					d.Med = d.High
				}
				cp.Distr[k] = d
			})
		}
	}
	return improved
}
