// Command atsd serves the analysis and regression pipeline over HTTP:
// a long-running, multi-tenant front end to the content-addressed
// profile store that the offline tools (atsanalyze, atsregress) operate
// on directly.
//
// Clients submit conformance cases (POST /v1/cases) or serialized
// traces (POST /v1/traces, ATSC spools); the server analyzes them
// through the same code path as the CLI tools, stores the canonical
// profile, compares it against the experiment's baseline, and returns a
// JSON report with the drift verdict.  See doc/API.md for the full
// HTTP API and `atsregress submit -server URL` for the CLI client.
//
//	atsd -addr 127.0.0.1:7341 -store .ats-store
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/regress"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon and returns the process exit code.  Factored
// out of main so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7341", "listen address")
		dir       = fs.String("store", regress.DefaultStoreDir, "profile store directory")
		workers   = fs.Int("j", 0, "analysis workers (0 = one per CPU)")
		depth     = fs.Int("queue", 0, "analysis backlog depth (0 = 2x workers)")
		maxBody   = fs.Int64("max-body", server.DefaultMaxBody, "max request body bytes")
		maxReps   = fs.Int("max-reports", server.DefaultMaxReports, "completed reports kept for dedup")
		maxEvents = fs.Int64("max-events", 10_000_000, "max events per uploaded trace (0 = unlimited)")
		maxLocs   = fs.Int("max-locations", 65536, "max locations per uploaded trace (0 = unlimited)")
		maxFrame  = fs.Int64("max-frame", 8<<20, "max ATSC frame bytes (0 = unlimited)")
		rel       = fs.Float64("rel", 0, "relative wait-drift tolerance (0 = default)")
		abs       = fs.Float64("abs", 0, "absolute wait floor in seconds (0 = default)")
		outlier   = fs.Float64("outlier", 0, "wait-vector distance tolerance (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "atsd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	store, err := regress.Open(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "atsd: opening store: %v\n", err)
		return 2
	}
	// Warm the similarity index up front: create or rebuild it, backfill
	// any objects stored while the daemon was down, and keep it current
	// incrementally on every accepted submission — the first
	// GET /v1/similar then never pays a full store walk.
	idx, err := store.EnsureIndex()
	if err != nil {
		fmt.Fprintf(stderr, "atsd: similarity index: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "atsd: similarity index covers %d profiles\n", idx.Len())
	srv := server.New(server.Config{
		Store:      store,
		Workers:    *workers,
		QueueDepth: *depth,
		MaxBody:    *maxBody,
		MaxReports: *maxReps,
		Limits: trace.Limits{
			MaxEvents:    *maxEvents,
			MaxLocations: *maxLocs,
			MaxFrame:     *maxFrame,
		},
		Tol: regress.Tolerances{RelWait: *rel, AbsWait: *abs, OutlierDist: *outlier},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		fmt.Fprintf(stderr, "atsd: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "atsd: listening on %s (store %s)\n", ln.Addr(), store.Dir())
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		fmt.Fprintf(stderr, "atsd: %v\n", err)
		return 2
	case got := <-sig:
		fmt.Fprintf(stdout, "atsd: %v: shutting down\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
		return 0
	}
}
