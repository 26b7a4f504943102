package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/server"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// atsd is the service path: an in-process atsd (server.New over a fresh
// regress.Store with its similarity index, a baseline per experiment so
// Compare runs) behind an httptest loopback listener, driven by closed-loop
// clients — atsd's callers (atsregress submit, CI) wait for each reply.
// Each client sends a seeded schedule: 50% fresh cases, 20% duplicate
// cases (dedup hits), 20% ATSC trace uploads drawn from spools built in
// setup, 10% similarity queries.  Reads run beside writes that reach
// Store.Put, the index append, Compare and ClusterRanks.
type atsd struct {
	cfg       config
	perClient int // requests per client per round
	nSpools   int
	spoolP    [2]int // rank counts of the spools, alternating

	dir     string
	store   *regress.Store
	srv     *server.Server
	ts      *httptest.Server
	http    *http.Client
	spools  [][]byte
	clients []*atsdClient
}

// Request kinds; each is also the span name "server.<kind>".
const (
	kindFresh   = "case_fresh"
	kindDup     = "case_dup"
	kindTrace   = "trace"
	kindSimilar = "similar"
)

// traceExperiment is the experiment trace uploads are filed under.
const traceExperiment = "atsperf-ring"

// recentCases bounds the fresh cases a client draws duplicates and
// similarity queries from: recent enough that the server's report cache
// (4096 completed reports) still holds them.
const recentCases = 256

// sampleEvery picks the fresh cases (each client's first, then every 50th)
// whose reported profile hash is checked against the offline
// conformance.CaseProfile hash.
const sampleEvery = 50

// request is one scheduled request.
type request struct {
	kind  string
	seed  uint64 // case seed: the case itself, or the case whose hash is queried
	spool int    // trace uploads
}

// atsdClient is one closed-loop client and its schedule.
type atsdClient struct {
	rng   *rand.Rand
	next  uint64   // seed of the next fresh case
	fresh []uint64 // recent fresh case seeds, oldest first
	sent  int64

	hashes    map[uint64]string // recent fresh case seed → reported profile hash
	spoolHash map[int]string    // spool → reported profile hash
	nFresh    int               // fresh cases answered
	sampled   []sampledCase     // fresh cases to check offline
}

// sampledCase is a fresh case and the profile hash atsd reported for it.
type sampledCase struct {
	seed uint64
	hash string
}

func newAtsdClient(seed uint64, id int) *atsdClient {
	return &atsdClient{
		rng:       rand.New(rand.NewSource(int64(seed)*7919 + int64(id))),
		next:      caseBase(seed) + 1000 + uint64(id)*400_000,
		hashes:    make(map[uint64]string),
		spoolHash: make(map[int]string),
	}
}

// nextRequest draws the client's next request.  It depends only on the
// seed and the requests drawn before, never on a response, so the seed
// fixes the whole schedule.
func (c *atsdClient) nextRequest(nSpools int) request {
	p := c.rng.Intn(10)
	switch {
	case p < 5 || len(c.fresh) == 0:
		seed := c.next
		c.next++
		c.fresh = append(c.fresh, seed)
		if len(c.fresh) > recentCases {
			delete(c.hashes, c.fresh[0])
			c.fresh = c.fresh[1:]
		}
		return request{kind: kindFresh, seed: seed}
	case p < 7:
		return request{kind: kindDup, seed: c.fresh[c.rng.Intn(len(c.fresh))]}
	case p < 9:
		return request{kind: kindTrace, spool: c.rng.Intn(nSpools)}
	default:
		return request{kind: kindSimilar, seed: c.fresh[c.rng.Intn(len(c.fresh))]}
	}
}

func newAtsd(cfg config) *atsd {
	a := &atsd{cfg: cfg, perClient: 300, nSpools: 32, spoolP: [2]int{64, 256}}
	if cfg.smoke {
		a.perClient, a.nSpools, a.spoolP = 5, 4, [2]int{8, 16}
	}
	return a
}

// roundsPerSecond: 600 requests at ~660 requests/s.
func (a *atsd) roundsPerSecond() float64 { return 1.1 }

func (a *atsd) setup(dir string) error {
	a.dir = dir
	store, err := regress.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	if _, err := store.EnsureIndex(); err != nil {
		return err
	}
	a.store = store
	a.srv = server.New(server.Config{Store: store, Workers: a.cfg.workers})
	a.ts = httptest.NewServer(a.srv)
	a.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: a.cfg.workers}}

	rng := rand.New(rand.NewSource(int64(a.cfg.seed)))
	for i := 0; i < a.nSpools; i++ {
		blob, err := buildSpool(filepath.Join(dir, "spool.atsc"), a.spoolP[i%2], 0.0001+0.0002*rng.Float64())
		if err != nil {
			return err
		}
		a.spools = append(a.spools, blob)
	}
	// Baselines, so every later submission is compared.
	cs, err := json.Marshal(conformance.Generate(caseBase(a.cfg.seed), conformance.Config{}))
	if err != nil {
		return err
	}
	for _, b := range []struct {
		url  string
		body []byte
	}{
		{a.ts.URL + "/v1/cases?save=1", cs},
		{a.ts.URL + "/v1/traces?save=1&experiment=" + traceExperiment, a.spools[0]},
	} {
		var rep server.Report
		if code, err := a.post(b.url, b.body, &rep); err != nil || code != http.StatusOK || !rep.Saved {
			return fmt.Errorf("setting baseline via %s: status %d, %v", b.url, code, err)
		}
	}
	for i := 0; i < a.cfg.workers; i++ {
		a.clients = append(a.clients, newAtsdClient(a.cfg.seed, i))
	}
	return nil
}

// buildSpool runs the ring composite at procs ranks into an ATSC spool at
// path and returns the spool's bytes.
func buildSpool(path string, procs int, skew float64) ([]byte, error) {
	defer os.Remove(path)
	w, err := trace.NewChunkWriter(path, trace.DefaultSpillEvents)
	if err != nil {
		return nil, err
	}
	if _, err := mpi.Run(mpi.Options{Procs: procs, Sink: w}, ringBody(skew)); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// post sends body and decodes a 200 response into v.
func (a *atsd) post(url string, body []byte, v any) (int, error) {
	resp, err := a.http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(blob, v)
}

func (a *atsd) round(r int, t *tracer) (roundStats, error) {
	lanes := t.group("client", len(a.clients))
	stats := make([]roundStats, len(a.clients))
	var wg sync.WaitGroup
	for i, c := range a.clients {
		wg.Add(1)
		go func(i int, c *atsdClient) {
			defer wg.Done()
			stats[i] = a.runClient(c, lanes[i])
		}(i, c)
	}
	wg.Wait()
	var st roundStats
	for _, s := range stats {
		st.ops += s.ops
		st.items += s.items
		st.failed += s.failed
		st.lat = append(st.lat, s.lat...)
	}
	return st, nil
}

// runClient sends the client's next perClient requests, each after the
// previous reply.
func (a *atsd) runClient(c *atsdClient, l *lane) roundStats {
	st := roundStats{ops: a.perClient, items: a.perClient, lat: make([]float64, 0, a.perClient)}
	for i := 0; i < a.perClient; i++ {
		req := c.nextRequest(a.nSpools)
		c.sent++
		lat, ok := a.do(c, req, l)
		st.lat = append(st.lat, float64(lat)/1e6)
		if !ok {
			st.failed++
		}
	}
	return st
}

// do sends one request, times it from send to the last response byte,
// and checks the reply.
func (a *atsd) do(c *atsdClient, req request, l *lane) (time.Duration, bool) {
	method, url := http.MethodPost, a.ts.URL
	var body []byte
	switch req.kind {
	case kindFresh, kindDup:
		blob, err := json.Marshal(conformance.Generate(req.seed, conformance.Config{}))
		if err != nil {
			return 0, false
		}
		url, body = url+"/v1/cases", blob
	case kindTrace:
		url, body = url+"/v1/traces?experiment="+traceExperiment, a.spools[req.spool]
	case kindSimilar:
		hash, ok := c.hashes[req.seed]
		if !ok {
			return 0, false // the case it queries was not stored
		}
		method, url = http.MethodGet, url+"/v1/similar/"+hash
	}

	l.begin("server."+req.kind, c.sent)
	start := time.Now()
	hreq, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		l.end()
		return 0, false
	}
	resp, err := a.http.Do(hreq)
	var blob []byte
	if err == nil {
		blob, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	l.end()
	if err != nil || resp.StatusCode != http.StatusOK {
		return lat, false
	}

	if req.kind == kindSimilar {
		var sim struct {
			Query   string             `json:"query"`
			Matches []similarity.Match `json:"matches"`
		}
		if json.Unmarshal(blob, &sim) != nil || len(sim.Matches) == 0 {
			return lat, false
		}
		// The query is indexed, so it matches itself with similarity 1;
		// only other profiles tied at 1 may crowd it out of the top k.
		for _, m := range sim.Matches {
			if m.Hash == sim.Query {
				return lat, true
			}
		}
		return lat, sim.Matches[len(sim.Matches)-1].Similarity >= 1-1e-9
	}
	var rep server.Report
	if json.Unmarshal(blob, &rep) != nil || rep.Status != server.StatusDone || !regress.ValidHash(rep.ProfileHash) {
		return lat, false
	}
	switch req.kind {
	case kindFresh:
		if c.nFresh%sampleEvery == 0 {
			c.sampled = append(c.sampled, sampledCase{req.seed, rep.ProfileHash})
		}
		c.nFresh++
		c.hashes[req.seed] = rep.ProfileHash
		return lat, !rep.Cached
	case kindDup:
		return lat, rep.Cached && rep.ProfileHash == c.hashes[req.seed]
	default: // kindTrace: one spool, one hash
		if h, ok := c.spoolHash[req.spool]; ok {
			return lat, h == rep.ProfileHash
		}
		c.spoolHash[req.spool] = rep.ProfileHash
		return lat, true
	}
}

// finish checks the sampled reports against the offline path and, traced,
// replays the layer calls a fresh case makes on the server.
func (a *atsd) finish(lg ledger) (int, map[string]float64, error) {
	failed := 0
	var sample []sampledCase
	spoolHash := make(map[int]string)
	for _, c := range a.clients {
		for _, sc := range c.sampled {
			cs := conformance.Generate(sc.seed, conformance.Config{})
			if !deterministic(cs) {
				continue
			}
			prof, _, err := conformance.CaseProfile(cs, "")
			if err != nil {
				return 0, nil, err
			}
			if h, err := prof.Hash(); err != nil || h != sc.hash {
				failed++
			}
		}
		sample = append(sample, c.sampled...)
		for i, h := range c.spoolHash {
			if prev, ok := spoolHash[i]; ok && prev != h {
				failed++
			}
			spoolHash[i] = h
		}
	}
	if lg.rounds == 0 {
		return failed, nil, nil
	}

	n := len(a.clients)
	layers := map[string]float64{"remainder_frac": 1}
	for _, k := range []string{kindFresh, kindDup, kindTrace, kindSimilar} {
		s := lg.share("server."+k, n)
		layers["server."+k+".frac"] = s
		layers["remainder_frac"] -= s
	}
	var stats server.Stats
	if err := a.get(a.ts.URL+"/v1/stats", &stats); err != nil {
		return 0, nil, err
	}
	layers["server.dedup_hit_ratio"] = float64(stats.DedupHits) / float64(stats.DedupHits+stats.AnalysesRun)
	layers["server.rejected"] = float64(stats.Queue.Rejected)

	rep, err := a.replay(sample)
	if err != nil {
		return 0, nil, err
	}
	mean := func(kind string) float64 {
		t := lg.times["server."+kind]
		return t.total.Seconds() / float64(max(t.n, 1))
	}
	fresh, sim := mean(kindFresh), mean(kindSimilar)
	layers["server.overhead.frac"] = 1
	for name, s := range map[string]float64{
		"conformance.case_profile.frac": rep.caseProfile,
		"regress.put.frac":              rep.put,
		"regress.compare.frac":          rep.compare,
		"similarity.cluster.frac":       rep.cluster,
	} {
		layers[name] = s / fresh
		layers["server.overhead.frac"] -= s / fresh
	}
	if sim > 0 {
		layers["regress.similar.frac"] = rep.similar / sim
	}
	return failed, layers, nil
}

// replayTimes are mean seconds per call of the layer calls atsd makes.
type replayTimes struct {
	caseProfile, put, compare, cluster, similar float64
}

// replay times, on the sampled fresh cases, the calls the server makes
// for one: conformance.CaseProfile, Store.Put with its index append (into
// a fresh store with an index), Baseline + Compare and ClusterRanks, plus
// Store.Similar on the live store that GET /v1/similar queries.
func (a *atsd) replay(sample []sampledCase) (replayTimes, error) {
	var rt replayTimes
	if len(sample) > 64 {
		sample = sample[:64]
	}
	if len(sample) == 0 {
		return rt, nil
	}
	dst, err := regress.Open(filepath.Join(a.dir, "replay-store"))
	if err != nil {
		return rt, err
	}
	if _, err := dst.EnsureIndex(); err != nil {
		return rt, err
	}
	timed := func(acc *float64, f func() error) error {
		start := time.Now()
		err := f()
		*acc += time.Since(start).Seconds()
		return err
	}
	for _, sc := range sample {
		cs := conformance.Generate(sc.seed, conformance.Config{})
		var prof *profile.Profile
		steps := []struct {
			acc *float64
			f   func() error
		}{
			{&rt.caseProfile, func() (err error) { prof, _, err = conformance.CaseProfile(cs, ""); return err }},
			{&rt.put, func() (err error) { _, err = dst.Put(prof); return err }},
			{&rt.compare, func() error {
				base, _, err := a.store.Baseline(prof.Experiment)
				if err == nil {
					regress.Compare(base, prof, regress.Tolerances{})
				}
				return err
			}},
			{&rt.cluster, func() error { similarity.ClusterRanks(prof, similarity.RankOptions{}); return nil }},
			{&rt.similar, func() error { _, _, err := a.store.Similar(sc.hash, 5); return err }},
		}
		for _, s := range steps {
			if err := timed(s.acc, s.f); err != nil {
				return rt, err
			}
		}
	}
	k := float64(len(sample))
	rt.caseProfile /= k
	rt.put /= k
	rt.compare /= k
	rt.cluster /= k
	rt.similar /= k
	return rt, nil
}

// deterministic reports whether a case's profile hash repeats from run to
// run; conformance.NondeterministicWaits lists the properties whose
// per-thread wait attribution does not.
func deterministic(cs conformance.Case) bool {
	for _, p := range cs.Props {
		if conformance.NondeterministicWaits[p.Name] {
			return false
		}
	}
	return true
}

// get fetches url and decodes the 200 response into v.
func (a *atsd) get(url string, v any) error {
	resp, err := a.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (a *atsd) close() {
	if a.http != nil {
		a.http.CloseIdleConnections()
	}
	if a.ts != nil {
		a.ts.Close()
	}
	if a.srv != nil {
		a.srv.Close()
	}
}
