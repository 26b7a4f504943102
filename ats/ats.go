// Package ats is the public facade of the APART Test Suite reproduction.
//
// It ties the pieces together for downstream users: run a synthetic
// parallel program on the MPI-like or OpenMP-like substrate, collect its
// event trace, analyze it with the EXPERT-style automatic analyzer, and
// render Vampir-style timelines — everything needed to reproduce the
// paper's workflow of constructing positive/negative test programs and
// checking that an analysis tool detects, localizes and ranks the seeded
// performance properties.
//
// Quick start:
//
//	tr, err := ats.RunMPI(ats.MPIOptions{Procs: 8}, func(c *mpi.Comm) {
//		core.LateSender(c, 0.01, 0.05, 10)
//	})
//	rep := ats.Analyze(tr)
//	fmt.Print(rep.Render())
//
// For large rank counts the materialized trace dominates memory; the
// streaming entry points (RunMPIStream, RunOMPStream, RunPropertyStream)
// spill events to an on-disk chunk spool while the program executes and
// analyze them incrementally, producing a report byte-identical to the
// in-memory path with peak memory proportional to the location grid
// rather than the event count:
//
//	out, err := ats.RunMPIStream(ats.MPIOptions{Procs: 1024}, body)
//	fmt.Print(out.Report.Render())
//
// See doc/ARCHITECTURE.md for the package map and doc/FORMATS.md for the
// on-disk encodings.
package ats

import (
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/asl"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/xctx"
)

// Re-exported option and result types, so typical users import only ats
// plus the substrate package(s) their program is written against.
type (
	// MPIOptions configures an MPI-style run (see mpi.Options).
	MPIOptions = mpi.Options
	// OMPOptions configures a standalone OpenMP-style run.
	OMPOptions = omp.RunOptions
	// TeamOptions configures individual parallel regions.
	TeamOptions = omp.Options
	// Report is an analysis result.
	Report = analyzer.Report
	// Trace is a merged event trace.
	Trace = trace.Trace
	// Args carries property-function parameter values (see core.Args).
	Args = core.Args
	// DistrSpec is the serializable form of a distribution argument.
	DistrSpec = core.DistrSpec
)

// NewArgs returns an empty property-argument set.  Generated
// single-property programs build their flag values into it, so they only
// need this facade package — the internal packages are not importable
// from outside this module.
func NewArgs() Args { return core.NewArgs() }

// RegisterASL compiles every `scenario` definition in the ASL source text
// and registers it as a property function, indistinguishable from the
// built-ins: RunProperty executes it, the generator emits a program for
// it, and the conformance oracle checks it against its ASL closed form.
// It returns the registered names.  See doc/ASL.md for the language.
func RegisterASL(src string) ([]string, error) { return asl.RegisterSource(src) }

// RegisterASLFile is RegisterASL over the contents of an .asl file.
func RegisterASLFile(path string) ([]string, error) { return asl.RegisterFile(path) }

// EvalASL parses ASL `property` definitions and evaluates them against an
// analysis report (custom-property checking, cf. examples/customproperty).
func EvalASL(src string, rep *Report) ([]asl.Finding, error) { return asl.EvalAll(src, rep) }

// Clock modes.
const (
	// Virtual selects deterministic logical time (the default).
	Virtual = vtime.Virtual
	// Real selects wall-clock time with calibrated busy-wait work.
	Real = vtime.Real
)

// RunMPI executes body on every rank of a fresh world and returns the
// merged trace.
func RunMPI(opt MPIOptions, body func(c *mpi.Comm)) (*Trace, error) {
	return mpi.Run(opt, body)
}

// RunOMP executes body as a standalone OpenMP-style program.
func RunOMP(opt OMPOptions, body func(ctx *xctx.Ctx, team TeamOptions)) (*Trace, error) {
	return omp.Run(opt, body)
}

// Analyze runs the automatic analyzer with default options.
func Analyze(tr *Trace) *Report {
	return analyzer.Analyze(tr, analyzer.Options{})
}

// AnalyzeWithThreshold runs the analyzer with a custom severity threshold.
func AnalyzeWithThreshold(tr *Trace, threshold float64) *Report {
	return analyzer.Analyze(tr, analyzer.Options{Threshold: threshold})
}

// Timeline renders a Vampir-style ASCII timeline of the trace.
func Timeline(tr *Trace, width int) string {
	return trace.Timeline(tr, trace.TimelineOptions{Width: width})
}

// StreamOutcome is the result of a streamed run: the analysis report plus
// the trace-shape metadata (location grid and event count) that a
// materialized run would carry in its Trace.  The events themselves were
// spilled to a temporary chunk spool and are gone by the time it returns.
type StreamOutcome struct {
	Report         *Report
	Ranks, Threads int
	Events         int
}

// streamed orchestrates one bounded-memory run: spool events through a
// temporary chunk file while run executes, then analyze the spool
// incrementally.  The spool is removed before returning.
func streamed(threshold float64, run func(*trace.ChunkWriter) error) (*StreamOutcome, error) {
	rep, info, err := profile.SpoolRun("", analyzer.Options{Threshold: threshold}, run)
	if err != nil {
		return nil, err
	}
	return &StreamOutcome{Report: rep, Ranks: info.Ranks, Threads: info.Threads, Events: info.Events}, nil
}

// RunMPIStream executes body like RunMPI but never materializes the
// trace: events are spilled to a temporary on-disk chunk spool as ranks
// execute and analyzed incrementally afterwards.  The report is
// byte-identical (same profile content hash) to Analyze on the
// materialized trace of the same run.  threshold zero selects the
// analyzer default.
func RunMPIStream(opt MPIOptions, threshold float64, body func(c *mpi.Comm)) (*StreamOutcome, error) {
	return streamed(threshold, func(sink *trace.ChunkWriter) error {
		o := opt
		o.Sink = sink
		_, err := mpi.Run(o, body)
		return err
	})
}

// RunOMPStream is RunOMP through the bounded-memory streaming pipeline
// (see RunMPIStream).
func RunOMPStream(opt OMPOptions, threshold float64, body func(ctx *xctx.Ctx, team TeamOptions)) (*StreamOutcome, error) {
	return streamed(threshold, func(sink *trace.ChunkWriter) error {
		o := opt
		o.Sink = sink
		_, err := omp.Run(o, body)
		return err
	})
}

// RunPropertyStream is RunProperty through the bounded-memory streaming
// pipeline (see RunMPIStream): the property runs with events spilled to a
// temporary spool and the report is computed incrementally.
func RunPropertyStream(name string, procs, threads int, threshold float64, a core.Args) (*StreamOutcome, error) {
	spec, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return streamed(threshold, func(sink *trace.ChunkWriter) error {
		_, err := spec.Exec(procs, threads, a, sink)
		return err
	})
}

// SpoolProperty runs one registered property function with events
// spilled to an ATSC chunk spool at path, leaving the spool on disk
// instead of analyzing it — the producer half of the streaming
// pipeline, for handing a run to another process (e.g. uploading to an
// atsd analysis server).  Analyzing the spool elsewhere yields a report
// byte-identical to running the property in-process.
func SpoolProperty(name string, procs, threads int, a core.Args, path string) error {
	spec, err := lookup(name)
	if err != nil {
		return err
	}
	return trace.WriteSpool(path, func(sink *trace.ChunkWriter) error {
		_, err := spec.Exec(procs, threads, a, sink)
		return err
	})
}

// RunProperty runs one registered property function as a single-property
// test program (paper §3.2) in a fresh environment and returns the trace.
// Pure-OpenMP properties run on a standalone team of `threads` threads;
// MPI and hybrid properties run on `procs` ranks (hybrid ones fork teams
// of `threads` threads per rank).
func RunProperty(name string, procs, threads int, a core.Args) (*Trace, error) {
	spec, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Exec(procs, threads, a, nil)
}

// lookup resolves a registered property name.
func lookup(name string) (*core.Spec, error) {
	spec, ok := core.Get(name)
	if !ok {
		return nil, fmt.Errorf("ats: unknown property %q (have %v)", name, core.Names())
	}
	return spec, nil
}

// RunPropertyDefaults is RunProperty with the spec's default arguments.
func RunPropertyDefaults(name string, procs, threads int) (*Trace, error) {
	spec, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Exec(procs, threads, spec.Defaults(), nil)
}
