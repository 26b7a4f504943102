// Command atsanalyze runs the EXPERT-style automatic analysis over a
// serialized event trace (written by atsrun -trace or the examples) and
// prints the three-pane report of paper Fig 3.5: the property tree with
// severities, and per significant property its call-path and location
// breakdowns.
//
// Custom ASL-style property catalogs (see internal/asl) can be evaluated
// against the trace with -asl:
//
//	atsanalyze -threshold 0.01 trace.atsc
//	atsanalyze -asl mycatalog.asl trace.atsc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analyzer"
	"repro/internal/asl"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atsanalyze: ")
	var (
		threshold = flag.Float64("threshold", 0.005, "severity threshold")
		profile   = flag.Bool("profile", false, "also print the flat region profile")
		aslFile   = flag.String("asl", "", "evaluate an ASL property catalog against the trace")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: atsanalyze [-threshold t] [-profile] [-asl catalog] [-json] <trace file>")
	}
	tr, err := trace.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatalf("reading trace: %v", err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{Threshold: *threshold})
	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatalf("writing JSON: %v", err)
		}
		return
	}
	fmt.Print(rep.Render())
	if *profile {
		fmt.Println()
		fmt.Print(rep.Stats.Profile())
	}
	if *aslFile != "" {
		src, err := os.ReadFile(*aslFile)
		if err != nil {
			log.Fatalf("reading ASL catalog: %v", err)
		}
		findings, err := asl.EvalAll(string(src), rep)
		if err != nil {
			log.Fatalf("evaluating ASL catalog: %v", err)
		}
		fmt.Printf("\n=== ASL catalog: %s ===\n", *aslFile)
		for _, f := range findings {
			verdict := "does not hold"
			if f.Holds {
				verdict = fmt.Sprintf("HOLDS (severity %.2f%%)", f.Severity*100)
			}
			fmt.Printf("  %-32s %s\n", f.Name, verdict)
		}
	}
}
