// Package server implements atsd, the long-running analysis and
// regression service over the content-addressed profile store.
//
// The server accepts two kinds of submissions: conformance cases (JSON,
// POST /v1/cases) and serialized traces (raw ATSC bytes,
// POST /v1/traces).  Each submission is analyzed through exactly the
// same code path as the offline CLI tools — conformance.CaseProfile for
// cases, trace.NewChunkReader plus the streaming analyzer for traces —
// so a server-side report carries the same profile content hash the
// offline path would produce on the same input.  The resulting profile
// is stored in a regress.Store, compared against the experiment's
// baseline, and the verdict served as a JSON report.
//
// Work queues through a bounded campaign.Queue: when every worker is
// busy and the backlog is full, submissions are rejected with 429 and a
// Retry-After header rather than buffered without bound.  Identical
// submissions (same kind, experiment, analysis options, and content)
// are deduplicated by content hash: the second submission returns the
// cached report without re-running the analysis.  The report cache is
// bounded: once more than Config.MaxReports submissions have completed,
// the oldest completed reports are evicted (in-flight reports are never
// evicted, so dedup waiters always see their job finish).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/regress"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// DefaultMaxBody is the request-body cap applied when Config.MaxBody is
// zero: large enough for real trace uploads, small enough to bound one
// request's spool.
const DefaultMaxBody = 64 << 20

// DefaultMaxReports is the completed-report cache cap applied when
// Config.MaxReports is zero.
const DefaultMaxReports = 4096

// Config assembles a Server.  The zero value of every field except
// Store is usable: missing knobs take the documented defaults.
type Config struct {
	// Store is the profile store submissions are analyzed against.
	Store *regress.Store
	// Workers and QueueDepth size the analysis pool (campaign.NewQueue
	// semantics: zero means one worker per CPU, backlog 2x workers).
	Workers    int
	QueueDepth int
	// MaxBody caps one request body in bytes (default DefaultMaxBody).
	MaxBody int64
	// MaxReports caps the completed-report dedup cache (default
	// DefaultMaxReports).  When more submissions than this have
	// completed, the oldest completed reports are evicted — resubmitting
	// one re-runs its analysis.  In-flight reports are never evicted.
	MaxReports int
	// Limits bounds untrusted trace content (events, locations, frame
	// size).  The zero value is unlimited.
	Limits trace.Limits
	// Tol is the drift tolerance for baseline comparisons (zero fields
	// take the regress defaults).
	Tol regress.Tolerances
}

// Server is the atsd HTTP handler plus its analysis pool and report
// cache.  Create with New, shut down with Close.
type Server struct {
	cfg   Config
	queue *campaign.Queue
	mux   *http.ServeMux

	mu      sync.Mutex
	reports map[string]*Report
	// doneOrder lists completed report IDs oldest first; retire evicts
	// from its head once the cache exceeds cfg.MaxReports.  Only
	// completed IDs enter it, so in-flight reports are never evicted.
	doneOrder []string
	// jobDone, when set (by tests), runs on the worker after a job's
	// report is retired and its done channel closed.
	jobDone func(id string)

	analyses  atomic.Int64 // analyses actually executed (dedup misses)
	dedupHits atomic.Int64 // submissions served from the report cache
	started   time.Time
}

// New builds a Server over cfg.Store.  The caller owns the store; Close
// stops the workers but leaves the store open.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.MaxReports <= 0 {
		cfg.MaxReports = DefaultMaxReports
	}
	s := &Server{
		cfg:     cfg,
		queue:   campaign.NewQueue(cfg.Workers, cfg.QueueDepth),
		mux:     http.NewServeMux(),
		reports: make(map[string]*Report),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/cases", s.handleCases)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/reports/{id}", s.handleReport)
	s.mux.HandleFunc("GET /v1/baselines/{experiment}", s.handleBaselineGet)
	s.mux.HandleFunc("PUT /v1/baselines/{experiment}", s.handleBaselinePut)
	s.mux.HandleFunc("GET /v1/store/{hash}", s.handleObject)
	s.mux.HandleFunc("GET /v1/similar/{hash}", s.handleSimilar)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP dispatches to the v1 routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the analysis pool.  In-flight jobs finish; new
// submissions are rejected with 503.
func (s *Server) Close() {
	s.queue.Close()
}

// AnalysesRun reports how many analyses actually executed — dedup cache
// hits do not count.  Tests use it to prove a resubmission was served
// from the cache.
func (s *Server) AnalysesRun() int64 { return s.analyses.Load() }

// Stats is the /v1/stats payload.
type Stats struct {
	UptimeS     float64             `json:"uptime_s"`
	Queue       campaign.QueueStats `json:"queue"`
	Reports     int                 `json:"reports"`
	AnalysesRun int64               `json:"analyses_run"`
	DedupHits   int64               `json:"dedup_hits"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.reports)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Stats{
		UptimeS:     time.Since(s.started).Seconds(),
		Queue:       s.queue.Stats(),
		Reports:     n,
		AnalysesRun: s.analyses.Load(),
		DedupHits:   s.dedupHits.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rep, ok := s.reports[id]
	var snap Report
	if ok {
		snap = *rep
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown report %q", id)
		return
	}
	code := http.StatusOK
	if snap.Status == StatusRunning {
		code = http.StatusAccepted
	}
	writeJSON(w, code, snap)
}

// baselineInfo is the GET /v1/baselines/{experiment} payload.
type baselineInfo struct {
	Experiment string   `json:"experiment"`
	Hash       string   `json:"hash"`
	History    []string `json:"history,omitempty"`
}

func (s *Server) handleBaselineGet(w http.ResponseWriter, r *http.Request) {
	exp := r.PathValue("experiment")
	hash, hist, err := s.cfg.Store.BaselineRef(exp)
	if err != nil {
		httpError(w, storeErrorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, baselineInfo{Experiment: exp, Hash: hash, History: hist})
}

func (s *Server) handleBaselinePut(w http.ResponseWriter, r *http.Request) {
	exp := r.PathValue("experiment")
	var req struct {
		Hash string `json:"hash"`
	}
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil || req.Hash == "" {
		httpError(w, http.StatusBadRequest, "want body {\"hash\": \"...\"}")
		return
	}
	if !regress.ValidHash(req.Hash) {
		httpError(w, http.StatusBadRequest, "malformed profile hash %q", req.Hash)
		return
	}
	if err := s.cfg.Store.SetBaseline(exp, req.Hash); err != nil {
		httpError(w, storeErrorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, baselineInfo{Experiment: exp, Hash: req.Hash})
}

// storeErrorCode classifies a store lookup failure: a missing object or
// missing baseline ref is the client's mistake (404); anything else —
// refs.json unreadable, object corrupt — is a server fault (500).
func storeErrorCode(err error) int {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, regress.ErrNoBaseline) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	// The path value is attacker-controlled and, under Go 1.22 mux
	// semantics, may smuggle %2F-encoded slashes into the wildcard
	// segment; only the exact content-hash form ever reaches the store.
	if !regress.ValidHash(hash) {
		httpError(w, http.StatusNotFound, "unknown object %q", hash)
		return
	}
	f, err := s.cfg.Store.ObjectReader(hash)
	if err != nil {
		httpError(w, http.StatusNotFound, "unknown object %q", hash)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	io.Copy(w, f)
}

// similarInfo is the GET /v1/similar/{hash} payload.
type similarInfo struct {
	Query string `json:"query"`
	// Probed is how many indexed profiles were actually scored — the
	// LSH candidate set, not the whole store.
	Probed  int                `json:"probed"`
	Indexed int                `json:"indexed"`
	Matches []similarity.Match `json:"matches"`
}

// handleSimilar serves top-k nearest-profile queries over the store's
// persistent LSH index.
//
//	GET /v1/similar/{hash}?k=5
func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !regress.ValidHash(hash) {
		httpError(w, http.StatusNotFound, "unknown object %q", hash)
		return
	}
	k := 5
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 1000 {
			httpError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		k = n
	}
	// Store.Similar, with the one EnsureIndex call's handle kept for the
	// indexed count.
	p, err := s.cfg.Store.Get(hash)
	if err != nil {
		httpError(w, storeErrorCode(err), "%v", err)
		return
	}
	idx, err := s.cfg.Store.EnsureIndex()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	matches, probed, err := idx.Query(similarity.Embed(p), k)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, similarInfo{
		Query:   hash,
		Probed:  probed,
		Indexed: idx.Len(),
		Matches: matches,
	})
}

// submit runs the dedup-or-enqueue protocol shared by the case and
// trace endpoints.  fresh is called exactly once per distinct report ID
// to create the pending report and its analysis job; it is not called
// on a cache hit.  save promotes the submission's profile to the
// experiment baseline once the analysis is done.  The return value
// reports whether a fresh job was enqueued — false means any resources
// prepared for the job (e.g. a spool file) are still the caller's to
// clean up.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, id string, save bool,
	fresh func() (*Report, func(*Report))) (enqueued bool) {
	s.mu.Lock()
	rep, hit := s.reports[id]
	if !hit {
		var job func(*Report)
		rep, job = fresh()
		rep.ID = id
		rep.Status = StatusRunning
		rep.done = make(chan struct{})
		done := rep.done
		// Enqueue before publishing the report, all under s.mu (Submit
		// never blocks): a concurrent duplicate must never observe a
		// pending report whose enqueue then fails, or it would wait on a
		// done channel nothing will ever close.
		err := s.queue.Submit(func() {
			s.analyses.Add(1)
			job(rep)
			// Retire before waking the waiters: a client that sees
			// this report done and submits another must find this one
			// already in the completion order, or the later report
			// could retire first and be evicted in its place.
			s.retire(id)
			close(done)
			if s.jobDone != nil {
				s.jobDone(id)
			}
		})
		if err != nil {
			s.mu.Unlock()
			if errors.Is(err, campaign.ErrSaturated) {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, "analysis queue is full")
			} else {
				httpError(w, http.StatusServiceUnavailable, "%v", err)
			}
			return false
		}
		s.reports[id] = rep
		enqueued = true
	}
	s.mu.Unlock()

	select {
	case <-rep.done:
	case <-r.Context().Done():
		return enqueued // client gone; the job still completes and stays cached
	}

	s.mu.Lock()
	snap := *rep
	s.mu.Unlock()
	if hit {
		s.dedupHits.Add(1)
		snap.Cached = true
	}
	if snap.Status == StatusError {
		writeJSON(w, http.StatusUnprocessableEntity, snap)
		return enqueued
	}
	if save {
		// A cached submission with save=1 promotes the already-stored
		// profile without re-running anything.
		if err := s.cfg.Store.SetBaseline(snap.Experiment, snap.ProfileHash); err != nil {
			httpError(w, http.StatusInternalServerError, "promoting baseline: %v", err)
			return enqueued
		}
		snap.Saved = true
		s.mu.Lock()
		rep.Saved = true
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, snap)
	return enqueued
}

// retire records a completed report for eviction and drops the oldest
// completed reports once the cache exceeds cfg.MaxReports, so a
// long-running server's memory does not grow with every distinct
// submission it has ever seen.  An evicted report simply re-runs on
// resubmission; dedup waiters already holding the *Report are
// unaffected by the map eviction.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > s.cfg.MaxReports {
		delete(s.reports, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
