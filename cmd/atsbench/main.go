// Command atsbench regenerates every evaluation artifact of the paper in
// one run: the Fig 3.2 single-property sweeps and timelines, the Fig 3.3
// composite, the Fig 3.4/3.5 two-communicator program with its
// EXPERT-style analysis, the positive/negative correctness tables, the
// Chapter-2 semantics-preservation and intrusiveness procedures, the
// Chapter-4 application runs, the microbenchmark tables, and the
// reproduction's design ablations.  Its output is the source material for
// EXPERIMENTS.md.
//
// Usage:
//
//	atsbench                 # everything, virtual clock only
//	atsbench -real           # include real-clock (wall time) experiments
//	atsbench -only fig35     # one experiment
//	atsbench -profiles DIR   # also emit one canonical profile per run,
//	                         # ready for `atsregress save` / `check`
//	atsbench -j 8            # run experiment campaigns 8 jobs at a time
//	                         # (output and profiles identical for any -j)
//	atsbench -only scale -stream
//	                         # streamed-vs-materialized memory comparison,
//	                         # extended to 1024 ranks
//	atsbench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                         # pprof profiles of the bench run itself
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/campaign"
	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/grindstone"
	"repro/internal/microbench"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/rescache"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atsbench: ")
	var (
		procs      = flag.Int("procs", 16, "MPI processes for the figure experiments")
		threads    = flag.Int("threads", 4, "OpenMP threads")
		real       = flag.Bool("real", false, "include real-clock experiments")
		only       = flag.String("only", "", "run a single experiment (fig32, fig33, fig35, positive, negative, perturbed, ch2, ch4, micro, grind, work, ablation, scale, scalebig, similarity)")
		perturbMax = flag.Int("perturb", 3, "highest perturbation level for the perturbed experiment (0..N)")
		profDir    = flag.String("profiles", "", "emit canonical profiles (one JSON per analyzed run) into this directory")
		jobs       = flag.Int("j", 0, "concurrent campaign jobs inside experiments (0: one per CPU)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		stream     = flag.Bool("stream", false, "extend the scale experiment to 1024 ranks (streamed vs materialized memory comparison)")
		scaleRanks = flag.String("scale-ranks", "4096,16384,65536", "comma-separated rank counts for the scalebig experiment")
		cacheDir   = flag.String("cache", "", "on-disk result cache directory for memoizable sweeps (empty: no caching)")
	)
	flag.Parse()
	w := os.Stdout

	// -cache memoizes the sweeps that are pure functions of their
	// coordinates (conformance checks, the perturbed table) in the shared
	// on-disk result store; stats go to stderr so stdout stays
	// byte-identical cold or warm.  Sweeps that must execute for real
	// (e.g. any run feeding -profiles) bypass the cache automatically.
	if *cacheDir != "" {
		c, err := rescache.Open(*cacheDir)
		if err != nil {
			log.Fatalf("cache: %v", err)
		}
		conformance.SetResultCache(c)
		defer func() {
			st := c.Stats()
			fmt.Fprintf(os.Stderr, "rescache: %d hits, %d misses, %d writes at %s\n",
				st.Hits, st.Misses, st.Puts, c.Dir())
		}()
	}

	// -j flows to every campaign.Run/Stream in the experiment layer
	// through the process-wide default, so the experiment signatures stay
	// free of concurrency plumbing.  Output is identical for any value.
	campaign.SetDefaultWorkers(*jobs)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	// With -profiles, every analyzed run is captured as a canonical
	// profile file named after its experiment — the raw material for
	// atsregress baselines.
	emit := func(name string, tr *trace.Trace, rep *analyzer.Report) {}
	profileCount := 0
	if *profDir != "" {
		if err := os.MkdirAll(*profDir, 0o755); err != nil {
			log.Fatalf("profiles: %v", err)
		}
		emit = func(name string, tr *trace.Trace, rep *analyzer.Report) {
			p, err := profile.FromRun(name, tr, rep, profile.RunInfo{Clock: vtime.Virtual.String()})
			if err != nil {
				log.Fatalf("profiles: %s: %v", name, err)
			}
			path := filepath.Join(*profDir, name+".json")
			if err := p.WriteFile(path); err != nil {
				log.Fatalf("profiles: %s: %v", name, err)
			}
			profileCount++
		}
		experiments.SetProfileSink(experiments.ProfileFunc(emit))
	}

	run := func(name string, f func() error) {
		if *only != "" && *only != name {
			return
		}
		fmt.Fprintf(w, "\n######## %s ########\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("fig32", func() error {
		_, err := experiments.Fig32(w, *procs)
		return err
	})
	run("fig33", func() error {
		_, err := experiments.Fig33(w, *procs)
		return err
	})
	run("fig35", func() error {
		_, err := experiments.Fig34And35(w, *procs)
		return err
	})
	run("positive", func() error {
		_, err := experiments.PositiveCorrectness(w, 8, *threads)
		return err
	})
	run("negative", func() error {
		_, err := experiments.NegativeCorrectness(w, 8, *threads)
		return err
	})
	run("perturbed", func() error {
		levels := make([]int, 0, *perturbMax+1)
		for l := 0; l <= *perturbMax; l++ {
			levels = append(levels, l)
		}
		_, err := experiments.PerturbedNegativeCorrectness(w, 8, *threads, levels)
		return err
	})
	run("ch2", func() error {
		_, err := experiments.Ch2(w, 4)
		return err
	})
	run("ch4", func() error {
		_, err := experiments.Ch4Applications(w, 4)
		return err
	})
	run("micro", func() error {
		pp, err := microbench.PingPong([]int{8, 64, 1024, 16384, 262144}, 10, vtime.Virtual)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== microbenchmarks: ping-pong (SKaMPI-style, virtual cost model) ==")
		fmt.Fprint(w, microbench.FormatPingPong(pp))
		cs, err := microbench.Collectives([]int{2, 4, 8, 16}, 1024, 10, vtime.Virtual)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\n== microbenchmarks: collectives ==")
		fmt.Fprint(w, microbench.FormatCollectives(cs))
		oo, err := microbench.OMPOverheads(*threads, 20, vtime.Virtual)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\n== microbenchmarks: OpenMP construct overheads (EPCC-style) ==")
		fmt.Fprint(w, microbench.FormatOMP(oo))
		return nil
	})
	run("grind", func() error {
		fmt.Fprintln(w, "== Grindstone-style diagnostic programs (Ch. 2) ==")
		for _, p := range grindstone.Programs() {
			tr, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
				p.Run(c, grindstone.Config{})
			})
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			rep := analyzer.Analyze(tr, analyzer.Options{})
			emit("grind_"+p.Name, tr, rep)
			top := "(clean)"
			if t := rep.Top(); t != nil {
				top = fmt.Sprintf("%s %.1f%%", t.Property, t.Severity*100)
			}
			fmt.Fprintf(w, "%-20s msgs=%6d avg=%9.0fB top=%-28s expected: %s\n",
				p.Name, rep.Messages.Count, rep.Messages.AvgBytes, top, p.Diagnosis)
		}
		return nil
	})
	run("scale", func() error {
		ranks := []int{16, 64, 256}
		if *stream {
			ranks = append(ranks, 1024)
		}
		_, err := experiments.Scale(w, ranks)
		return err
	})
	// scalebig only runs when asked for by name: 10⁴–10⁵-rank runs are
	// deliberate acts, not part of the default sweep.
	if *only == "scalebig" {
		run("scalebig", func() error {
			ranks, err := parseRanks(*scaleRanks)
			if err != nil {
				return err
			}
			_, err = experiments.ScaleStreamed(w, ranks)
			return err
		})
	}
	run("similarity", func() error {
		sizes := []int{1000, 5000, 10000}
		_, err := experiments.Similarity(w, sizes)
		return err
	})
	run("work", func() error {
		_, err := experiments.WorkAccuracy(w, *real)
		return err
	})
	run("ablation", func() error {
		_, err := experiments.Ablations(w, *real)
		return err
	})
	if *profDir != "" {
		fmt.Fprintf(w, "\nwrote %d profiles to %s\n", profileCount, *profDir)
	}
}

// parseRanks parses a comma-separated -scale-ranks list.
func parseRanks(s string) ([]int, error) {
	var ranks []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("scale-ranks: bad rank count %q", part)
		}
		ranks = append(ranks, n)
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("scale-ranks: empty list")
	}
	return ranks, nil
}
