// Command atsrun is the generic single-property test-program driver
// (paper §3.2): it runs any registered ATS property function with
// parameters taken from the command line, then prints the automatic
// analysis report (and optionally a timeline or a serialized trace).
//
// Usage:
//
//	atsrun -list
//	atsrun -property late_sender -procs 8 -set extrawork=0.1 -set r=10
//	atsrun -property imbalance_at_mpi_barrier -set distr=linear \
//	       -set distr_low=0.01 -set distr_high=0.2 -timeline
//	atsrun -property late_sender -procs 1024 -stream   # bounded memory
//	atsrun -property late_sender -stream -trace run.atsc   # spool for atsd upload
//	atsrun -asl examples/catalog.asl -property ramped_exchange -procs 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/ats"
	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/trace"
)

// setFlags accumulates repeated -set name=value arguments.
type setFlags map[string]string

func (s setFlags) String() string { return fmt.Sprintf("%v", map[string]string(s)) }

func (s setFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", v)
	}
	s[name] = val
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("atsrun: ")
	var (
		list      = flag.Bool("list", false, "list registered properties and exit")
		property  = flag.String("property", "", "property function to run")
		procs     = flag.Int("procs", 8, "number of MPI processes")
		threads   = flag.Int("threads", 4, "number of OpenMP threads")
		traceOut  = flag.String("trace", "", "write the event trace to this file (with -stream, spool the run into it while it executes)")
		timeline  = flag.Bool("timeline", false, "print a Vampir-style timeline")
		threshold = flag.Float64("threshold", 0.005, "analysis severity threshold")
		width     = flag.Int("width", 100, "timeline width in columns")
		stream    = flag.Bool("stream", false, "stream events through an on-disk spool (the -trace file, else a temporary one) and analyze incrementally (bounded memory; incompatible with -timeline)")
		aslFile   = flag.String("asl", "", "register ASL scenario definitions from this file before resolving -property (see doc/ASL.md)")
	)
	sets := setFlags{}
	flag.Var(sets, "set", "set a property parameter: name=value (repeatable)")
	flag.Parse()

	if *aslFile != "" {
		names, err := ats.RegisterASLFile(*aslFile)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "registered ASL scenarios: %s\n", strings.Join(names, ", "))
	}

	if *list {
		for _, spec := range core.All() {
			fmt.Printf("%-42s [%s] %s\n", spec.Name, spec.Paradigm, spec.Help)
			for _, p := range spec.Params {
				fmt.Printf("    %-20s %s\n", paramUsage(p), p.Help)
			}
		}
		return
	}
	if *property == "" {
		log.Fatalf("no -property given; use -list to see the registry")
	}
	spec, ok := core.Get(*property)
	if !ok {
		log.Fatalf("unknown property %q; use -list", *property)
	}
	args, err := buildArgs(spec, sets)
	if err != nil {
		log.Fatal(err)
	}

	if *stream {
		if *timeline {
			log.Fatalf("-stream never materializes the trace; it is incompatible with -timeline")
		}
		rep, info, err := streamProperty(spec, *procs, *threads, args, *traceOut, *threshold)
		if err != nil {
			log.Fatalf("run failed: %v", err)
		}
		fmt.Fprintf(os.Stderr, "streamed %d events (%d ranks x %d threads)\n", info.Events, info.Ranks, info.Threads)
		if *traceOut != "" {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
		}
		fmt.Print(rep.Render())
		return
	}

	tr, err := ats.RunProperty(spec.Name, *procs, *threads, args)
	if err != nil {
		log.Fatalf("run failed: %v", err)
	}
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *traceOut, len(tr.Events))
	}
	if *timeline {
		fmt.Print(ats.Timeline(tr, *width))
	}
	fmt.Print(ats.AnalyzeWithThreshold(tr, *threshold).Render())
}

// streamProperty runs the property with its events spooled into the
// trace file at path while it executes — into a temporary file removed
// afterwards when path is empty — then analyzes the spool incrementally.
func streamProperty(spec *core.Spec, procs, threads int, args core.Args, path string, threshold float64) (*analyzer.Report, profile.TraceInfo, error) {
	return profile.SpoolRun(path, analyzer.Options{Threshold: threshold}, func(w *trace.ChunkWriter) error {
		_, err := spec.Exec(procs, threads, args, w)
		return err
	})
}

func paramUsage(p core.Param) string {
	switch p.Kind {
	case core.ParamFloat:
		return fmt.Sprintf("%s=%g", p.Name, p.DefFloat)
	case core.ParamInt:
		return fmt.Sprintf("%s=%d", p.Name, p.DefInt)
	default:
		return fmt.Sprintf("%s=%s (+_low/_high/_med/_n)", p.Name, p.DefDistr.Name)
	}
}

// buildArgs folds -set overrides into the spec defaults.
func buildArgs(spec *core.Spec, sets setFlags) (core.Args, error) {
	args := spec.Defaults()
	consumed := map[string]bool{}
	for _, p := range spec.Params {
		switch p.Kind {
		case core.ParamFloat:
			if v, ok := sets[p.Name]; ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return args, fmt.Errorf("parameter %s: %v", p.Name, err)
				}
				args.Float[p.Name] = f
				consumed[p.Name] = true
			}
		case core.ParamInt:
			if v, ok := sets[p.Name]; ok {
				i, err := strconv.Atoi(v)
				if err != nil {
					return args, fmt.Errorf("parameter %s: %v", p.Name, err)
				}
				args.Int[p.Name] = i
				consumed[p.Name] = true
			}
		case core.ParamDistr:
			ds := args.Distr[p.Name]
			if v, ok := sets[p.Name]; ok {
				ds.Name = v
				consumed[p.Name] = true
			}
			for suffix, dst := range map[string]*float64{
				"_low": &ds.Low, "_high": &ds.High, "_med": &ds.Med,
			} {
				if v, ok := sets[p.Name+suffix]; ok {
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return args, fmt.Errorf("parameter %s%s: %v", p.Name, suffix, err)
					}
					*dst = f
					consumed[p.Name+suffix] = true
				}
			}
			if v, ok := sets[p.Name+"_n"]; ok {
				i, err := strconv.Atoi(v)
				if err != nil {
					return args, fmt.Errorf("parameter %s_n: %v", p.Name, err)
				}
				ds.N = i
				consumed[p.Name+"_n"] = true
			}
			args.Distr[p.Name] = ds
		}
	}
	for name := range sets {
		if !consumed[name] {
			return args, fmt.Errorf("property %s has no parameter %q", spec.Name, name)
		}
	}
	return args, nil
}
