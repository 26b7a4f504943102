package conformance

// Engine differential harness: the test oracle for the event-driven
// virtual-time scheduler.  A case is executed twice — on the event engine
// every Virtual-mode run uses, and on the goroutine engine as the
// reference — and the serialized traces (Trace.Write) and canonical
// profile hashes are compared byte for byte.  Any divergence (message matching, collective
// completion times, wildcard resolution order, OMP team scheduling) shows
// up as a trace or hash mismatch, so the event engine's claim of
// observational equivalence with the goroutine engine is checked on the
// whole conformance surface rather than argued case by case.

import (
	"bytes"
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/mpi"
	"repro/internal/perturb"
	"repro/internal/profile"
	"repro/internal/trace"
)

// DiffOutcome reports one engine-differential comparison.
type DiffOutcome struct {
	// Hash is the profile content hash both engines produced.
	Hash string
	// TraceBytes is the size of the serialized trace compared.
	TraceBytes int
	// BytesCompared is false for cases containing a property in
	// NondeterministicWaits: their traces legitimately vary run to run
	// (lock-entry attribution), so only successful completion on both
	// engines is checked.
	BytesCompared bool
}

// engineRun runs body with opts and returns its trace, serialized.
func engineRun(opts mpi.Options, body func(c *mpi.Comm)) (*trace.Trace, []byte, error) {
	tr, err := mpi.Run(opts, body)
	if err != nil {
		return nil, nil, fmt.Errorf("engine %s: %w", opts.Engine, err)
	}
	var buf bytes.Buffer
	if _, err := tr.Write(&buf); err != nil {
		return nil, nil, fmt.Errorf("engine %s: serialize: %w", opts.Engine, err)
	}
	return tr, buf.Bytes(), nil
}

// engineCase executes the case on one engine and returns the serialized
// trace plus the canonical profile hash.
func engineCase(cs Case, prof perturb.Profile, eng mpi.Engine) ([]byte, string, error) {
	tr, b, err := engineRun(mpi.Options{Procs: cs.Procs, Perturb: perturb.NewModel(prof), Engine: eng}, caseBody(cs))
	if err != nil {
		return nil, "", err
	}
	rep := analyzer.Analyze(tr, analyzer.Options{Threshold: cs.Threshold})
	p, err := profile.FromRun(DefaultExperiment, tr, rep, caseRunInfo(cs))
	var hash string
	if err == nil {
		hash, err = p.Hash()
	}
	if err != nil {
		return nil, "", fmt.Errorf("engine %s: hash: %w", eng, err)
	}
	return b, hash, nil
}

// DiffEngines runs the case under the given perturbation profile on both
// the event and goroutine engines and compares the serialized traces and
// profile hashes byte for byte.  A mismatch is returned as an error naming
// the first diverging byte offset; the error is the finding.
func DiffEngines(cs Case, prof perturb.Profile) (DiffOutcome, error) {
	if err := cs.Validate(); err != nil {
		return DiffOutcome{}, err
	}
	evBytes, evHash, err := engineCase(cs, prof, mpi.EngineEvent)
	if err != nil {
		return DiffOutcome{}, err
	}
	goBytes, goHash, err := engineCase(cs, prof, mpi.EngineGoroutine)
	if err != nil {
		return DiffOutcome{}, err
	}
	out := DiffOutcome{Hash: evHash, TraceBytes: len(evBytes)}
	if hasNondeterministicWaits(cs) {
		return out, nil
	}
	out.BytesCompared = true
	if evHash != goHash {
		return out, fmt.Errorf("conformance: engine divergence: profile hash event=%s goroutine=%s", evHash, goHash)
	}
	if !bytes.Equal(evBytes, goBytes) {
		off := diffOffset(evBytes, goBytes)
		return out, fmt.Errorf("conformance: engine divergence: serialized traces differ at byte %d (event %dB, goroutine %dB)",
			off, len(evBytes), len(goBytes))
	}
	return out, nil
}

// DiffEngineBodies runs an arbitrary rank body at the given scale on both
// engines and byte-compares the serialized traces — the mpi-level half of
// the harness, for programs (Ch.4 apps, fig35, hand-written patterns) that
// are not expressible as conformance cases.  It returns the shared trace
// size.
func DiffEngineBodies(procs int, body func(c *mpi.Comm)) (int, error) {
	_, evBytes, err := engineRun(mpi.Options{Procs: procs, Engine: mpi.EngineEvent}, body)
	if err != nil {
		return 0, err
	}
	_, goBytes, err := engineRun(mpi.Options{Procs: procs, Engine: mpi.EngineGoroutine}, body)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(evBytes, goBytes) {
		return len(evBytes), fmt.Errorf("engine divergence: serialized traces differ at byte %d (event %dB, goroutine %dB)",
			diffOffset(evBytes, goBytes), len(evBytes), len(goBytes))
	}
	return len(evBytes), nil
}

// diffOffset returns the first index at which a and b differ.
func diffOffset(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
