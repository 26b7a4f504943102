// Command atsfuzz drives the metamorphic conformance fuzzer from the
// command line, sharing one engine (internal/conformance) with the Go
// native fuzz harnesses and the quick-mode unit test.
//
//	atsfuzz run -seeds 100            # fuzz 100 seeded cases, shrink failures
//	atsfuzz run -cache auto -j 4      # memoized sweep, 4 cases at a time
//	atsfuzz replay case.json ...      # re-check saved reproducers
//	atsfuzz corpus                    # list the committed corpus
//	atsfuzz gen -seeds 10 -out DIR    # write seed cases as corpus files
//	atsfuzz cache gc -dir DIR         # drop stale-version result-cache entries
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/asl"
	"repro/internal/campaign"
	"repro/internal/conformance"
	"repro/internal/rescache"
)

// loadASL registers the scenarios of an -asl file into the property
// registry, so generated cases can draw them and replayed cases can
// resolve them.  An empty path is a no-op.
func loadASL(path string, stderr io.Writer) bool {
	if path == "" {
		return true
	}
	names, err := asl.RegisterFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "atsfuzz: %v\n", err)
		return false
	}
	fmt.Fprintf(stderr, "registered %d ASL scenario(s) from %s\n", len(names), path)
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: atsfuzz <command> [flags]

Every fuzzing command accepts -asl FILE to register ASL-defined scenarios
(doc/ASL.md) into the property pool before generating or replaying cases.

commands:
  run     -seeds N [-start S] [-ranks P] [-threads T] [-corpus DIR] [-j N]
          [-cache DIR] [-v] [-perturb] [-asl FILE]
          generate and check N seeded cases; shrink and save failures
          (-j runs cases concurrently; output is identical for any -j;
          -perturb sweeps each case over the deterministic perturbation
          ladder; -cache memoizes verdicts on disk so repeated sweeps
          are free — "auto" picks the default location)
  replay  <case.json> [...]
          re-run saved cases through the oracle
  corpus  [-dir DIR]
          list the corpus cases
  gen     -seeds N [-start S] [-out DIR]
          write generated seed cases as corpus files
  cache   gc|stats [-dir DIR]
          result-cache maintenance: gc drops entries recorded under a
          stale engine version or profile schema; stats counts entries`)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "replay":
		return cmdReplay(args[1:], stdout, stderr)
	case "corpus":
		return cmdCorpus(args[1:], stdout, stderr)
	case "gen":
		return cmdGen(args[1:], stdout, stderr)
	case "cache":
		return cmdCache(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "atsfuzz: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

// resolveCacheDir maps a -cache flag value to a directory: "auto"
// selects the corpus-adjacent default when a corpus directory is in
// play, the repository default otherwise; anything else is taken
// verbatim.
func resolveCacheDir(flagVal, corpusDir string) string {
	if flagVal != "auto" {
		return flagVal
	}
	if corpusDir != "" {
		return filepath.Join(corpusDir, ".rescache")
	}
	return rescache.DefaultDir
}

// openCache opens the result cache and installs it process-wide.  The
// returned reporter prints hit/miss statistics to stderr — stderr, not
// stdout, so a warm sweep's stdout stays byte-identical to a cold one.
func openCache(dir string, stderr io.Writer) (func(), error) {
	c, err := rescache.Open(dir)
	if err != nil {
		return nil, err
	}
	conformance.SetResultCache(c)
	report := func() {
		conformance.SetResultCache(nil)
		st := c.Stats()
		total := st.Hits + st.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(st.Hits) / float64(total) * 100
		}
		fmt.Fprintf(stderr, "rescache: %d hits, %d misses, %d writes (%.1f%% hit rate) at %s\n",
			st.Hits, st.Misses, st.Puts, rate, c.Dir())
	}
	return report, nil
}

// seedResult is one job's result: the oracle verdict plus, on failure,
// the shrunken reproducer.
type seedResult struct {
	Out conformance.Outcome
	Min *conformance.Case
}

// checkSeedCase runs one case through the oracle (the full robustness
// ladder with perturbed set) and shrinks failures: one campaign job.
func checkSeedCase(cs conformance.Case, opt conformance.CheckOptions, perturbed bool) (seedResult, error) {
	shrinkOpt := opt
	var out conformance.Outcome
	if perturbed {
		ro, err := conformance.CheckRobust(cs, opt, nil)
		if err != nil {
			return seedResult{}, fmt.Errorf("seed %d: %v", cs.Seed, err)
		}
		if ro.OK() {
			out = ro.Outcomes[0]
		} else {
			// Shrink against the level that failed, so the minimized
			// case reproduces under replay.
			out = ro.FailOutcome()
			shrinkOpt.Perturb = ro.FailProfile()
		}
	} else {
		var err error
		out, err = conformance.CheckCached(cs, opt)
		if err != nil {
			return seedResult{}, fmt.Errorf("seed %d: %v", cs.Seed, err)
		}
	}
	res := seedResult{Out: out}
	if !out.OK() {
		min := conformance.Shrink(cs, shrinkOpt)
		res.Min = &min
	}
	return res, nil
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 50, "number of seeded cases to check")
	start := fs.Uint64("start", 1, "first seed")
	ranks := fs.Int("ranks", 0, "fix the rank count of generated cases (0: random per case)")
	threads := fs.Int("threads", 0, "fix the thread count (0: random per case)")
	corpus := fs.String("corpus", "", "directory to save shrunken reproducers into")
	verbose := fs.Bool("v", false, "print every case, not just failures")
	jobs := fs.Int("j", 0, "concurrent cases (0: one per CPU)")
	cacheDir := fs.String("cache", "", `on-disk result cache directory ("auto": default location; empty: no caching)`)
	perturbed := fs.Bool("perturb", false,
		"sweep every case over the deterministic perturbation ladder (robustness axis)")
	aslFile := fs.String("asl", "", "register ASL scenarios from this file into the property pool")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !loadASL(*aslFile, stderr) {
		return 2
	}
	if *cacheDir != "" {
		report, err := openCache(resolveCacheDir(*cacheDir, *corpus), stderr)
		if err != nil {
			fmt.Fprintf(stderr, "atsfuzz: %v\n", err)
			return 2
		}
		defer report()
	}
	cfg := conformance.Config{}
	if *ranks > 0 {
		cfg.Procs = []int{*ranks}
	}
	if *threads > 0 {
		cfg.Threads = []int{*threads}
	}
	opt := conformance.CheckOptions{}

	// Each seed is one campaign job: generate, check, and (only on
	// failure) shrink — all deterministic functions of the seed.  The
	// sink owns every output byte and all corpus writes, and runs in seed
	// order, so the output stream is byte-identical for any -j.
	failures := 0
	sink := func(i int, cs conformance.Case, res seedResult) error {
		seed := *start + uint64(i)
		if res.Out.OK() {
			if *verbose {
				fmt.Fprintf(stdout, "ok   %s (%d events, %d findings, %s)\n",
					cs, res.Out.Events, res.Out.Findings, short(res.Out.Hash))
			}
			return nil
		}
		failures++
		fmt.Fprintf(stdout, "FAIL %s\n", cs)
		for _, v := range res.Out.Violations {
			fmt.Fprintf(stdout, "     %s\n", v)
		}
		fmt.Fprintf(stdout, "     shrunk to %s\n", *res.Min)
		if *corpus != "" {
			path := filepath.Join(*corpus, fmt.Sprintf("seed%d.json", seed))
			if err := conformance.WriteCase(path, *res.Min); err != nil {
				return fmt.Errorf("save %s: %v", path, err)
			}
			fmt.Fprintf(stdout, "     saved %s\n", path)
		}
		return nil
	}

	err := campaign.Stream(*seeds,
		campaign.Options{Workers: *jobs},
		func(i int) (seedResult, error) {
			cs := conformance.Generate(*start+uint64(i), cfg)
			return checkSeedCase(cs, opt, *perturbed)
		},
		func(i int, res seedResult) error {
			return sink(i, conformance.Generate(*start+uint64(i), cfg), res)
		})
	if err != nil {
		var ce *campaign.Error
		if errors.As(err, &ce) {
			err = ce.Err
		}
		fmt.Fprintf(stderr, "atsfuzz: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "checked %d cases: %d failing\n", *seeds, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

func cmdCache(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "atsfuzz cache: expected gc or stats")
		return 2
	}
	sub := args[0]
	fs := flag.NewFlagSet("cache "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", rescache.DefaultDir, "result cache directory")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	store, err := rescache.Open(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "atsfuzz cache: %v\n", err)
		return 2
	}
	switch sub {
	case "gc":
		res, err := store.GC()
		if err != nil {
			fmt.Fprintf(stderr, "atsfuzz cache: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "gc %s: scanned %d, removed %d stale, kept %d\n",
			store.Dir(), res.Scanned, res.Removed, res.Kept)
		return 0
	case "stats":
		n, err := store.Len()
		if err != nil {
			fmt.Fprintf(stderr, "atsfuzz cache: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s: %d servable entries\n", store.Dir(), n)
		return 0
	default:
		fmt.Fprintf(stderr, "atsfuzz cache: unknown subcommand %q (want gc or stats)\n", sub)
		return 2
	}
}

func cmdReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	aslFile := fs.String("asl", "", "register ASL scenarios from this file into the property pool")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !loadASL(*aslFile, stderr) {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "atsfuzz replay: no case files given")
		return 2
	}
	failures := 0
	for _, path := range fs.Args() {
		cs, err := conformance.ReadCase(path)
		if err != nil {
			fmt.Fprintf(stderr, "atsfuzz: %v\n", err)
			return 2
		}
		out, err := conformance.Check(cs, conformance.CheckOptions{})
		if err != nil {
			fmt.Fprintf(stderr, "atsfuzz: %s: %v\n", path, err)
			return 2
		}
		if out.OK() {
			fmt.Fprintf(stdout, "ok   %s: %s (%d events, %s)\n", path, cs, out.Events, short(out.Hash))
			continue
		}
		failures++
		fmt.Fprintf(stdout, "FAIL %s: %s\n", path, cs)
		for _, v := range out.Violations {
			fmt.Fprintf(stdout, "     %s\n", v)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d of %d cases failing\n", failures, fs.NArg())
		return 1
	}
	return 0
}

func cmdCorpus(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("corpus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "testdata/conformance-corpus", "corpus directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	entries, err := conformance.LoadCorpus(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "atsfuzz: %v\n", err)
		return 2
	}
	for _, e := range entries {
		fmt.Fprintf(stdout, "%-24s %s\n", e.Name, e.Case)
	}
	fmt.Fprintf(stdout, "%d cases\n", len(entries))
	return 0
}

func cmdGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 10, "number of cases to generate")
	start := fs.Uint64("start", 1, "first seed")
	out := fs.String("out", "testdata/conformance-corpus", "output directory")
	aslFile := fs.String("asl", "", "register ASL scenarios from this file into the property pool")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !loadASL(*aslFile, stderr) {
		return 2
	}
	for i := 0; i < *seeds; i++ {
		seed := *start + uint64(i)
		cs := conformance.Generate(seed, conformance.Config{})
		path := filepath.Join(*out, fmt.Sprintf("seed%03d.json", seed))
		if err := conformance.WriteCase(path, cs); err != nil {
			fmt.Fprintf(stderr, "atsfuzz: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s: %s\n", path, cs)
	}
	return 0
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
