package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/ats"
	"repro/internal/analyzer"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/trace"
)

// newTestServer builds a Server over a fresh store plus an httptest
// front end.  The returned Server is the white-box handle (queue,
// counters); the httptest.Server is the black-box HTTP surface.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// corpusCase loads one committed conformance corpus case.
func corpusCase(t *testing.T, name string) (conformance.Case, []byte) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "conformance-corpus", name)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := conformance.ReadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	return cs, blob
}

// postReport posts body and decodes the server's Report payload.
func postReport(t *testing.T, url, contentType string, body []byte) (*Report, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &rep, resp
}

// propertySpool writes a late_sender run as an ATSC spool; extrawork
// scales the injected severity so two spools can disagree.
func propertySpool(t *testing.T, extrawork float64) string {
	t.Helper()
	spec, ok := core.Get("late_sender")
	if !ok {
		t.Fatal("late_sender not registered")
	}
	args := spec.Defaults()
	if extrawork > 0 {
		args.Float["extrawork"] = extrawork
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("ls-%g.atsc", extrawork))
	if err := ats.SpoolProperty("late_sender", 4, 1, args, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// offlineSpoolHash computes the profile hash of a spool through the
// offline streaming path — what atsanalyze-style local analysis yields.
func offlineSpoolHash(t *testing.T, path, experiment string) string {
	t.Helper()
	cr, err := trace.OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(cr)
	if err != nil {
		cr.Close()
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := analyzer.AnalyzeStream(st, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.FromAnalysis(experiment, profile.TraceInfoOfStream(st), rep, profile.RunInfo{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := prof.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// TestCaseSubmitMatchesOfflineHash submits a corpus case and checks the
// server's profile hash is byte-identical to the determinism hash the
// offline conformance.Check pipeline computes for the same case.
func TestCaseSubmitMatchesOfflineHash(t *testing.T) {
	cs, blob := corpusCase(t, "seed001.json")
	_, ts := newTestServer(t, Config{})

	rep, resp := postReport(t, ts.URL+"/v1/cases", "application/json", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cases: %s", resp.Status)
	}
	if rep.Status != StatusDone || rep.Kind != "case" || rep.Experiment != "conformance" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.ProfileHash == "" {
		t.Fatal("report carries no profile hash")
	}

	out, err := conformance.Check(cs, conformance.CheckOptions{SkipDeterminism: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProfileHash != out.Hash {
		t.Errorf("server profile hash %s != offline conformance hash %s", rep.ProfileHash, out.Hash)
	}

	// The stored object round-trips to the same content address.
	getResp, err := http.Get(ts.URL + "/v1/store/" + rep.ProfileHash)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/store/{hash}: %s", getResp.Status)
	}
	prof, err := profile.Decode(getResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := prof.Hash(); err != nil || h != rep.ProfileHash {
		t.Errorf("served object hashes to %s (err %v), want %s", h, err, rep.ProfileHash)
	}

	// The report is retrievable by ID; unknown IDs 404.
	repResp, err := http.Get(ts.URL + "/v1/reports/" + rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	repResp.Body.Close()
	if repResp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/reports/{id}: %s", repResp.Status)
	}
	missResp, err := http.Get(ts.URL + "/v1/reports/nope")
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown report: %s, want 404", missResp.Status)
	}
}

// TestTraceSubmitDiffDrift saves a baseline from one streamed run, then
// submits a run with a different injected severity and expects a drift
// verdict.  Both server-side hashes must match the offline streaming
// analysis of the same spools.
func TestTraceSubmitDiffDrift(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := propertySpool(t, 0)
	hot := propertySpool(t, 0.25)

	baseBlob, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, resp := postReport(t, ts.URL+"/v1/traces?experiment=ls&save=1", "application/octet-stream", baseBlob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST baseline trace: %s", resp.Status)
	}
	if !rep.Saved || rep.Status != StatusDone {
		t.Fatalf("baseline submission not saved: %+v", rep)
	}
	if want := offlineSpoolHash(t, base, "ls"); rep.ProfileHash != want {
		t.Errorf("server hash %s != offline hash %s", rep.ProfileHash, want)
	}

	hotBlob, err := os.ReadFile(hot)
	if err != nil {
		t.Fatal(err)
	}
	rep2, resp2 := postReport(t, ts.URL+"/v1/traces?experiment=ls", "application/octet-stream", hotBlob)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST drifted trace: %s", resp2.Status)
	}
	if want := offlineSpoolHash(t, hot, "ls"); rep2.ProfileHash != want {
		t.Errorf("server hash %s != offline hash %s", rep2.ProfileHash, want)
	}
	if rep2.BaselineHash != rep.ProfileHash {
		t.Errorf("compared against %s, want baseline %s", rep2.BaselineHash, rep.ProfileHash)
	}
	if rep2.Diff == nil || !rep2.Drift {
		t.Fatalf("expected a drift verdict, got %+v", rep2)
	}
}

// TestDedupServesCachedReport submits the same case twice — the second
// time with different JSON formatting — and checks the second response
// comes from the cache without re-running the analysis.
func TestDedupServesCachedReport(t *testing.T) {
	cs, blob := corpusCase(t, "seed002.json")
	s, ts := newTestServer(t, Config{})

	rep1, resp1 := postReport(t, ts.URL+"/v1/cases", "application/json", blob)
	if resp1.StatusCode != http.StatusOK || rep1.Cached {
		t.Fatalf("first submission: status %s cached %v", resp1.Status, rep1.Cached)
	}
	if got := s.AnalysesRun(); got != 1 {
		t.Fatalf("after first submission AnalysesRun = %d, want 1", got)
	}

	// Same case, cosmetically different JSON: must hit the cache.
	pretty, err := json.MarshalIndent(cs, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	rep2, resp2 := postReport(t, ts.URL+"/v1/cases", "application/json", pretty)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submission: %s", resp2.Status)
	}
	if !rep2.Cached {
		t.Error("second submission not served from cache")
	}
	if rep2.ID != rep1.ID || rep2.ProfileHash != rep1.ProfileHash {
		t.Errorf("cached report diverges: %+v vs %+v", rep2, rep1)
	}
	if got := s.AnalysesRun(); got != 1 {
		t.Errorf("analysis re-ran: AnalysesRun = %d, want 1", got)
	}
}

// TestBackpressure fills the single-worker queue with blockers and
// expects a fresh submission to bounce with 429 and Retry-After.
func TestBackpressure(t *testing.T) {
	_, blob := corpusCase(t, "seed001.json")
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	// Occupy the worker...
	if err := s.queue.Submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...and the one backlog slot.
	if err := s.queue.Submit(func() {}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/cases", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submission: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After")
	}
}

// TestTraceIngestRejectsATS1: the retired merged trace format is not
// analyzed; the report names the one format the server reads.
func TestTraceIngestRejectsATS1(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An ATS1 header: one region "main", the root path, one location, no
	// events.
	body := append([]byte("ATS1\x01\x04main\x01\x01\x00\x00\x00"), make([]byte, 16)...)
	rep, resp := postReport(t, ts.URL+"/v1/traces?experiment=x", "application/octet-stream", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %s, want %d", resp.Status, http.StatusUnprocessableEntity)
	}
	const want = `unrecognized trace format "ATS1" (want ATSC)`
	if rep.Status != StatusError || !strings.Contains(rep.Error, want) {
		t.Fatalf("report status %q error %q, want %q naming %s", rep.Status, rep.Error, StatusError, want)
	}
}

// TestIngestRejections drives the malformed/oversized table: body cap
// (413), trace content over policy limits (422), garbage bytes (422),
// missing parameters and bad JSON (400).
func TestIngestRejections(t *testing.T) {
	spool := propertySpool(t, 0)
	spoolBlob, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	_, blob := corpusCase(t, "seed001.json")

	tests := []struct {
		name     string
		cfg      Config
		path     string
		body     []byte
		wantCode int
		wantErr  string
	}{
		{"case over body cap", Config{MaxBody: 16}, "/v1/cases", blob,
			http.StatusRequestEntityTooLarge, "exceeds"},
		{"trace over body cap", Config{MaxBody: 16}, "/v1/traces?experiment=x", spoolBlob,
			http.StatusRequestEntityTooLarge, "exceeds"},
		{"trace over event limit", Config{Limits: trace.Limits{MaxEvents: 2}}, "/v1/traces?experiment=x", spoolBlob,
			http.StatusUnprocessableEntity, "events, limit"},
		{"trace over location limit", Config{Limits: trace.Limits{MaxLocations: 1}}, "/v1/traces?experiment=x", spoolBlob,
			http.StatusUnprocessableEntity, "locations, limit"},
		{"garbage trace bytes", Config{}, "/v1/traces?experiment=x", []byte("NOPE not a trace"),
			http.StatusUnprocessableEntity, "unrecognized trace format"},
		{"trace without experiment", Config{}, "/v1/traces", spoolBlob,
			http.StatusBadRequest, "experiment"},
		{"bad threshold", Config{}, "/v1/traces?experiment=x&threshold=cold", spoolBlob,
			http.StatusBadRequest, "threshold"},
		{"bad case JSON", Config{}, "/v1/cases", []byte("{nope"),
			http.StatusBadRequest, "decoding case"},
		{"invalid case", Config{}, "/v1/cases", []byte(`{"schema":1,"procs":0,"threads":0}`),
			http.StatusUnprocessableEntity, "invalid case"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			resp, err := http.Post(ts.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %s, want %d", resp.Status, tc.wantCode)
			}
			var payload struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
				t.Fatalf("decoding error payload: %v", err)
			}
			if !strings.Contains(payload.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", payload.Error, tc.wantErr)
			}
		})
	}
}

// TestBaselineAPI promotes and reads baselines over HTTP.
func TestBaselineAPI(t *testing.T) {
	_, blob := corpusCase(t, "seed001.json")
	_, ts := newTestServer(t, Config{})

	rep, _ := postReport(t, ts.URL+"/v1/cases", "application/json", blob)
	if rep.Status != StatusDone {
		t.Fatalf("submission failed: %+v", rep)
	}

	// No baseline yet.
	resp, err := http.Get(ts.URL + "/v1/baselines/conformance")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET baseline before promotion: %s, want 404", resp.Status)
	}

	// Promote the stored profile by hash.
	body, _ := json.Marshal(map[string]string{"hash": rep.ProfileHash})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/baselines/conformance", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT baseline: %s", putResp.Status)
	}

	getResp, err := http.Get(ts.URL + "/v1/baselines/conformance")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var info struct {
		Experiment string   `json:"experiment"`
		Hash       string   `json:"hash"`
		History    []string `json:"history"`
	}
	if err := json.NewDecoder(getResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Hash != rep.ProfileHash || len(info.History) != 1 {
		t.Errorf("baseline info %+v, want hash %s with 1 history entry", info, rep.ProfileHash)
	}

	// Promoting an unknown object is rejected.
	bogus, _ := json.Marshal(map[string]string{"hash": strings.Repeat("ab", 32)})
	req, err = http.NewRequest(http.MethodPut, ts.URL+"/v1/baselines/conformance", bytes.NewReader(bogus))
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusNotFound {
		t.Errorf("PUT unknown hash: %s, want 404", badResp.Status)
	}
}

// TestBaselineGetBytes: GET /v1/baselines/{experiment} answers with the
// bytes it answered with when it decoded the baseline profile: before
// promotion, after two promotions, and once the baseline object has gone
// from the store (404 naming the open that Store.Baseline fails with).
func TestBaselineGetBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	store := s.cfg.Store
	const exp = "conformance"
	var hist []string // newest first
	check := func(when string) {
		t.Helper()
		want := httptest.NewRecorder()
		if _, hash, err := store.Baseline(exp); err != nil {
			httpError(want, storeErrorCode(err), "%v", err)
		} else {
			writeJSON(want, http.StatusOK, baselineInfo{Experiment: exp, Hash: hash, History: hist})
		}
		resp, err := http.Get(ts.URL + "/v1/baselines/" + exp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want.Code || !bytes.Equal(got, want.Body.Bytes()) {
			t.Errorf("%s: GET baseline = %d %s, want %d %s", when, resp.StatusCode, got, want.Code, want.Body.Bytes())
		}
	}

	check("no baseline")
	for _, name := range []string{"seed001.json", "seed002.json"} {
		cs, _ := corpusCase(t, name)
		prof, _, err := conformance.CaseProfile(cs, exp)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := store.SaveBaseline(prof)
		if err != nil {
			t.Fatal(err)
		}
		hist = append([]string{hash}, hist...)
	}
	check("two promotions")
	if err := os.Remove(filepath.Join(store.Dir(), "objects", hist[0][:2], hist[0]+".json")); err != nil {
		t.Fatal(err)
	}
	check("object removed")
}

// TestPathTraversalRejected plants a file outside the store exactly
// where a %2F-smuggled traversal "hash" would land and checks both
// attacker entry points — GET /v1/store/{hash} and the hash field of
// PUT /v1/baselines/{experiment} — refuse non-hash names instead of
// resolving them against the filesystem.
func TestPathTraversalRejected(t *testing.T) {
	root := t.TempDir()
	store, err := regress.Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	// A lookup that joined hash "../../secret" into a path unchecked would
	// resolve it to root/secret.json; a vulnerable server would serve it.
	const marker = `{"planted":"secret"}`
	if err := os.WriteFile(filepath.Join(root, "secret.json"), []byte(marker), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: store})

	resp, err := http.Get(ts.URL + "/v1/store/..%2F..%2Fsecret")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET traversal hash: %s, want 404", resp.Status)
	}
	if strings.Contains(string(body), "planted") {
		t.Errorf("traversal served the planted file: %s", body)
	}

	reqBody, _ := json.Marshal(map[string]string{"hash": "../../secret"})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/baselines/exp", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT traversal hash: %s, want 400", putResp.Status)
	}
}

// TestReportEviction bounds the dedup cache: with MaxReports=1, a
// second completed submission evicts the first, whose resubmission then
// re-runs the analysis as a cache miss.
func TestReportEviction(t *testing.T) {
	_, blobA := corpusCase(t, "seed001.json")
	_, blobB := corpusCase(t, "seed002.json")
	s, ts := newTestServer(t, Config{MaxReports: 1})

	repA, respA := postReport(t, ts.URL+"/v1/cases", "application/json", blobA)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("first submission: %s", respA.Status)
	}
	if _, respB := postReport(t, ts.URL+"/v1/cases", "application/json", blobB); respB.StatusCode != http.StatusOK {
		t.Fatalf("second submission: %s", respB.Status)
	}

	// Eviction runs on the worker after the submitter's response is
	// written, so poll for the first report to disappear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/reports/" + repA.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report %s never evicted (last status %s)", repA.ID, resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	repA2, _ := postReport(t, ts.URL+"/v1/cases", "application/json", blobA)
	if repA2.Cached {
		t.Error("evicted report still served from cache")
	}
	if got := s.AnalysesRun(); got != 3 {
		t.Errorf("AnalysesRun = %d, want 3 (eviction must force a re-run)", got)
	}
}

// TestReportEvictionCompletionOrder forces the interleaving behind a
// once-flaky eviction: report A's worker is held after A's response is
// written until report B has completed.  A finished first, so A is the
// one evicted, however late its worker runs afterwards.
func TestReportEvictionCompletionOrder(t *testing.T) {
	_, blobA := corpusCase(t, "seed001.json")
	_, blobB := corpusCase(t, "seed002.json")
	s, ts := newTestServer(t, Config{Workers: 2, MaxReports: 1})

	var calls atomic.Int32
	released := make(chan struct{})
	s.jobDone = func(id string) {
		if calls.Add(1) != 1 {
			return
		}
		defer close(released)
		// Hold the first job's worker until another report retires.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			s.mu.Lock()
			other := slices.ContainsFunc(s.doneOrder, func(d string) bool { return d != id })
			s.mu.Unlock()
			if other {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	repA, respA := postReport(t, ts.URL+"/v1/cases", "application/json", blobA)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("first submission: %s", respA.Status)
	}
	repB, respB := postReport(t, ts.URL+"/v1/cases", "application/json", blobB)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("second submission: %s", respB.Status)
	}
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("first job's worker never released")
	}
	// Let the released worker finish whatever follows the hook.
	time.Sleep(20 * time.Millisecond)

	for _, c := range []struct {
		id   string
		want int
	}{{repA.ID, http.StatusNotFound}, {repB.ID, http.StatusOK}} {
		resp, err := http.Get(ts.URL + "/v1/reports/" + c.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("report %s: status %s, want %d", c.id, resp.Status, c.want)
		}
	}
}

// TestSaturatedDuplicatesAllComplete races identical submissions
// against a saturated queue: every request must terminate with 429 —
// none may dedup onto a pending report whose enqueue failed and then
// wait forever on a done channel nothing will close.
func TestSaturatedDuplicatesAllComplete(t *testing.T) {
	_, blob := corpusCase(t, "seed003.json")
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := s.queue.Submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.queue.Submit(func() {}); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	codes := make([]int, 8)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/cases", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Errorf("request %d did not complete: %v", i, err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 0 && code != http.StatusTooManyRequests {
			t.Errorf("request %d: status %d, want 429", i, code)
		}
	}
}

// TestStoreFaultIs500 corrupts the ref index and checks baseline reads
// and promotions surface the store fault as 500, not a masked 404.
func TestStoreFaultIs500(t *testing.T) {
	root := t.TempDir()
	store, err := regress.Open(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	_, blob := corpusCase(t, "seed001.json")
	_, ts := newTestServer(t, Config{Store: store})
	rep, _ := postReport(t, ts.URL+"/v1/cases", "application/json", blob)
	if rep.Status != StatusDone {
		t.Fatalf("submission failed: %+v", rep)
	}

	if err := os.WriteFile(filepath.Join(root, "store", "refs.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/baselines/conformance")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("GET baseline with corrupt refs: %s, want 500", resp.Status)
	}

	body, _ := json.Marshal(map[string]string{"hash": rep.ProfileHash})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/baselines/conformance", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusInternalServerError {
		t.Errorf("PUT baseline with corrupt refs: %s, want 500", putResp.Status)
	}
}

// TestStats sanity-checks the /v1/stats counters after a dedup pair.
func TestStats(t *testing.T) {
	_, blob := corpusCase(t, "seed003.json")
	_, ts := newTestServer(t, Config{})
	postReport(t, ts.URL+"/v1/cases", "application/json", blob)
	postReport(t, ts.URL+"/v1/cases", "application/json", blob)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.AnalysesRun != 1 || st.DedupHits != 1 || st.Reports != 1 {
		t.Errorf("stats = %+v, want 1 analysis, 1 dedup hit, 1 report", st)
	}
	if st.Queue.Workers <= 0 || st.Queue.Depth <= 0 {
		t.Errorf("queue stats not populated: %+v", st.Queue)
	}
}
