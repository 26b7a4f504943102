package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/analyzer"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/trace"
)

// scale is the large-P single-job path: each round is one world at 16384
// ranks through mpi.Run{Sink: ChunkWriter} → trace.NewStream →
// analyzer.AnalyzeStream → profile.FromAnalysis + Hash.  Engine dispatch,
// spool, k-way merge and streaming-analyzer state are on the path;
// campaign, rescache and atsd are bypassed.
type scale struct {
	cfg   config
	procs int // ranks per measured world
	check int // ranks of the setup's streamed-vs-materialized check
	body  func(c *mpi.Comm)
	dir   string

	checkEvents int    // events of the setup world
	hash        string // profile hash of the first measured world
	events      int    // events per measured world
	spoolBytes  int64
	failed      int

	allocs, added uint64 // traced rounds: heap allocations during Add, events added
}

func newScale(cfg config) *scale {
	s := &scale{cfg: cfg, procs: 16384, check: 1024, body: ringBody(scaleSkew(cfg.seed))}
	if cfg.smoke {
		s.procs, s.check = 256, 64
	}
	return s
}

// scaleSkew draws the per-rank compute skew of the scale worlds from the
// seed.
func scaleSkew(seed uint64) float64 {
	return 0.0001 + 0.0002*rand.New(rand.NewSource(int64(seed))).Float64()
}

// ringBody is the big-rank composite of the scale experiments (the
// benchmark's own copy of experiments' scaleBigBody, with the skew as a
// parameter): six rounds of four skewed compute segments, a ring
// Sendrecv and a Barrier.
func ringBody(skew float64) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		work := skew * (1 + float64(c.Rank())/float64(c.Size()))
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		buf := mpi.AllocBuf(mpi.TypeDouble, 4)
		defer mpi.FreeBuf(buf)
		c.Begin("scale_phase")
		for r := 0; r < 6; r++ {
			for k := 0; k < 4; k++ {
				c.Begin("compute")
				c.Work(work)
				c.End()
			}
			c.Sendrecv(buf, next, 1, buf, prev, 1)
			c.Barrier()
		}
		c.End()
	}
}

// roundsPerSecond: one 16384-rank world takes ~2.5 s.
func (s *scale) roundsPerSecond() float64 { return 0.4 }

// setup checks, at the smaller rank count, that the streamed hash equals
// the materialized (mpi.Run + analyzer.Analyze) hash.  It also warms the
// engine's pools.
func (s *scale) setup(dir string) error {
	s.dir = dir
	tr, err := mpi.Run(mpi.Options{Procs: s.check}, s.body)
	if err != nil {
		return err
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	prof, err := profile.FromRun("scale", tr, rep, profile.RunInfo{Procs: s.check, Threads: 1})
	if err != nil {
		return err
	}
	want, err := prof.Hash()
	if err != nil {
		return err
	}
	events, got, _, err := s.world(s.check, nil)
	if err != nil {
		return err
	}
	if got != want || events != len(tr.Events) {
		s.failed++
	}
	s.checkEvents = events
	return nil
}

// world runs one world through the streaming pipeline and returns its
// event count, profile hash and spool size.  With a lane, the analysis is
// driven batch by batch so merge and analyzer time separate; without, it
// is analyzer.AnalyzeStream itself.
func (s *scale) world(procs int, l *lane) (events int, hash string, spoolBytes int64, err error) {
	spool := filepath.Join(s.dir, "world.atsc")
	defer os.Remove(spool)

	l.begin("trace.record", 0)
	w, err := trace.NewChunkWriter(spool, trace.DefaultSpillEvents)
	if err != nil {
		return 0, "", 0, err
	}
	if _, err := mpi.Run(mpi.Options{Procs: procs, Sink: w}, s.body); err != nil {
		w.Abort()
		return 0, "", 0, err
	}
	if err := w.Close(); err != nil {
		return 0, "", 0, err
	}
	l.end()
	fi, err := os.Stat(spool)
	if err != nil {
		return 0, "", 0, err
	}

	l.begin("trace.merge", 0)
	r, err := trace.OpenChunkFile(spool)
	if err != nil {
		return 0, "", 0, err
	}
	st, err := trace.NewStream(r)
	if err != nil {
		r.Close()
		return 0, "", 0, err
	}
	defer st.Close()
	l.end()

	var rep *analyzer.Report
	if l == nil {
		rep, err = analyzer.AnalyzeStream(st, analyzer.Options{})
	} else {
		rep, err = s.analyzeBatched(st, l)
	}
	if err != nil {
		return 0, "", 0, err
	}
	l.begin("profile.build", 0)
	prof, err := profile.FromAnalysis("scale", profile.TraceInfoOfStream(st), rep, profile.RunInfo{Procs: procs, Threads: 1})
	l.end()
	if err != nil {
		return 0, "", 0, err
	}
	l.begin("profile.hash", 0)
	hash, err = prof.Hash()
	l.end()
	return st.Events(), hash, fi.Size(), err
}

// scaleBatch is the number of events merged, then analyzed, per timed
// batch.
const scaleBatch = 4096

// analyzeBatched is analyzer.AnalyzeStream with the merge (Stream.Next)
// and the analyzer (StreamAnalyzer.Add) timed in alternating batches, and
// the heap allocations of the Add batches counted.
func (s *scale) analyzeBatched(st *trace.Stream, l *lane) (*analyzer.Report, error) {
	a := analyzer.NewStreamAnalyzer(st, analyzer.Options{})
	batch := make([]trace.Event, 0, scaleBatch)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	count := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64() + allocs[1].Value.Uint64()
	}
	for {
		l.begin("trace.merge", 0)
		batch = batch[:0]
		for len(batch) < scaleBatch {
			ev, err := st.Next()
			if err != nil {
				return nil, err
			}
			if ev == nil {
				break
			}
			batch = append(batch, *ev)
		}
		l.end()
		if len(batch) == 0 {
			break
		}
		a0 := count()
		l.begin("analyzer.add", 0)
		for i := range batch {
			a.Add(&batch[i])
		}
		l.end()
		s.allocs += count() - a0
		s.added += uint64(len(batch))
	}
	l.begin("analyzer.finish", 0)
	rep := a.Finish()
	l.end()
	return rep, nil
}

func (s *scale) round(r int, t *tracer) (roundStats, error) {
	start := time.Now()
	events, hash, size, err := s.world(s.procs, t.group("pipeline", 1)[0])
	d := time.Since(start)
	if err != nil {
		return roundStats{}, err
	}
	if r == 0 {
		s.hash, s.events, s.spoolBytes = hash, events, size
	}
	st := roundStats{ops: 1, items: events, lat: []float64{float64(d) / 1e6}}
	if hash != s.hash || events != s.events {
		st.failed = 1
	}
	return st, nil
}

// finish adds the untraced-engine replays: the same body and seed with
// mpi.Options.Untraced at both rank counts.  Dispatch is subtracted from
// the record span, which covers dispatch plus recording.
func (s *scale) finish(lg ledger) (int, map[string]float64, error) {
	if lg.rounds == 0 {
		return s.failed, nil, nil
	}
	untraced := func(procs, reps int) (float64, error) {
		var ds []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := mpi.Run(mpi.Options{Procs: procs, Untraced: true}, s.body); err != nil {
				return 0, fmt.Errorf("untraced replay P=%d: %w", procs, err)
			}
			ds = append(ds, time.Since(start).Seconds())
		}
		return median(ds), nil
	}
	dBig, err := untraced(s.procs, 1)
	if err != nil {
		return 0, nil, err
	}
	dSmall, err := untraced(s.check, 5)
	if err != nil {
		return 0, nil, err
	}
	wall := lg.wall.Seconds()
	dispatch := dBig * float64(lg.rounds) / wall
	layers := map[string]float64{
		"mpi.dispatch.frac":    dispatch,
		"trace.record.frac":    lg.share("trace.record", 1) - dispatch,
		"trace.merge.frac":     lg.share("trace.merge", 1),
		"analyzer.add.frac":    lg.share("analyzer.add", 1),
		"analyzer.finish.frac": lg.share("analyzer.finish", 1),
		"profile.build.frac":   lg.share("profile.build", 1),
		"profile.hash.frac":    lg.share("profile.hash", 1),
	}
	rest := 1.0
	for _, v := range layers {
		rest -= v
	}
	layers["remainder_frac"] = rest
	layers["mpi.events_per_s.p16384"] = float64(s.events) / dBig
	layers["mpi.events_per_s.p1024"] = float64(s.checkEvents) / dSmall
	layers["trace.spool_bytes_per_event"] = float64(s.spoolBytes) / float64(s.events)
	layers["analyzer.allocs_per_event"] = float64(s.allocs) / float64(s.added)
	return s.failed, layers, nil
}

func (s *scale) close() {}
