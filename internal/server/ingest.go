package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"repro/internal/analyzer"
	"repro/internal/conformance"
	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// handleCases accepts a conformance case as JSON, runs it unperturbed
// through exactly the conformance.Check pipeline, and reports the
// resulting canonical profile against the experiment baseline.
//
//	POST /v1/cases?experiment=NAME&save=1
//
// The experiment defaults to conformance.DefaultExperiment, under which
// the profile hash equals the determinism hash conformance.Check
// computes for the same case.
func (s *Server) handleCases(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	var cs conformance.Case
	if err := json.Unmarshal(raw, &cs); err != nil {
		httpError(w, http.StatusBadRequest, "decoding case: %v", err)
		return
	}
	if err := cs.Validate(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "invalid case: %v", err)
		return
	}
	exp := r.URL.Query().Get("experiment")
	if exp == "" {
		exp = conformance.DefaultExperiment
	}
	// Dedup on the re-marshaled case so formatting differences in the
	// submitted JSON do not defeat the cache.
	canon, err := json.Marshal(cs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	id := reportID("case", exp, "", canon)
	s.submit(w, r, id, queryBool(r, "save"), func() (*Report, func(*Report)) {
		rep := &Report{Kind: "case", Experiment: exp}
		return rep, func(rep *Report) {
			prof, _, err := conformance.CaseProfile(cs, exp)
			if err != nil {
				s.fail(rep, err)
				return
			}
			s.finish(rep, prof)
		}
	})
}

// handleTraces accepts a serialized trace (an ATSC spool), spools it to
// disk while hashing, and analyzes it under the configured input limits
// by streaming straight off the spool, so server memory never holds the
// upload's event list (see analyzer.AnalyzeStream for the bound).
//
//	POST /v1/traces?experiment=NAME&threshold=0.005&save=1
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	exp := q.Get("experiment")
	if exp == "" {
		httpError(w, http.StatusBadRequest, "missing experiment query parameter")
		return
	}
	threshold := 0.0 // zero selects the analyzer default
	if v := q.Get("threshold"); v != "" {
		var err error
		if threshold, err = strconv.ParseFloat(v, 64); err != nil || threshold < 0 {
			httpError(w, http.StatusBadRequest, "bad threshold %q", v)
			return
		}
	}
	spool, bodyHash, err := spoolBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	id := reportID("trace", exp, fmt.Sprintf("threshold=%g", threshold), []byte(bodyHash))
	enqueued := s.submit(w, r, id, queryBool(r, "save"), func() (*Report, func(*Report)) {
		rep := &Report{Kind: "trace", Experiment: exp}
		return rep, func(rep *Report) {
			defer os.Remove(spool)
			prof, err := s.analyzeSpool(spool, exp, threshold)
			if err != nil {
				s.fail(rep, err)
				return
			}
			s.finish(rep, prof)
		}
	})
	if !enqueued {
		os.Remove(spool) // dedup hit or rejection: the job never ran
	}
}

// spoolBody copies an upload to a temp file while hashing it, so dedup
// can key on content without holding the body in memory.
func spoolBody(r io.Reader) (path, hash string, err error) {
	f, err := os.CreateTemp("", "atsd-spool-*")
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	_, err = io.Copy(f, io.TeeReader(r, h))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", "", err
	}
	return f.Name(), hex.EncodeToString(h.Sum(nil)), nil
}

// analyzeSpool analyzes a spooled upload under the server's input
// limits and returns its canonical profile.  It streams, reading the
// spool through trace.NewChunkFileReader's read-ahead window: the event
// list is never materialized.
func (s *Server) analyzeSpool(path, experiment string, threshold float64) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("trace body: %w", err)
	}
	if string(magic[:]) != "ATSC" {
		return nil, fmt.Errorf("unrecognized trace format %q (want ATSC)", magic[:])
	}
	cr, err := trace.NewChunkFileReader(f, s.cfg.Limits)
	if err != nil {
		return nil, err
	}
	rep, info, err := profile.AnalyzeSpool(cr, analyzer.Options{Threshold: threshold})
	if err != nil {
		return nil, err
	}
	return profile.FromAnalysis(experiment, info, rep, profile.RunInfo{})
}

// fail completes a report with an error.
func (s *Server) fail(rep *Report, err error) {
	s.mu.Lock()
	rep.Status = StatusError
	rep.Error = err.Error()
	s.mu.Unlock()
}

// finish stores the analyzed profile, diffs it against the experiment
// baseline (when one exists), and completes the report.
func (s *Server) finish(rep *Report, prof *profile.Profile) {
	hash, err := s.cfg.Store.Put(prof)
	if err != nil {
		s.fail(rep, err)
		return
	}
	var (
		baseHash string
		diff     *regress.Diff
		drift    bool
	)
	if base, bh, err := s.cfg.Store.Baseline(prof.Experiment); err == nil {
		baseHash = bh
		diff = regress.Compare(base, prof, s.cfg.Tol)
		drift = diff.Regressed()
	}
	// Within-run rank clustering: flag straggler/deviant ranks as
	// analyzer.PropRankOutlier findings on the report.  Derived from the
	// canonical profile, so the verdict is identical to what the offline
	// tools compute for the same submission.
	outliers := similarity.ClusterRanks(prof, similarity.RankOptions{}).Outliers
	s.mu.Lock()
	rep.ProfileHash = hash
	rep.BaselineHash = baseHash
	rep.Diff = diff
	rep.Drift = drift
	rep.RankOutliers = outliers
	rep.Status = StatusDone
	s.mu.Unlock()
}

// bodyError maps a request-body read failure to 413 (cap exceeded) or
// 400 (transport error).
func bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "reading body: %v", err)
}

func queryBool(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}
