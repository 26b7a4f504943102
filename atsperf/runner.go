package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// config is what every workload is built from.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	smoke   bool
	workers int    // campaign workers, atsd workers and HTTP clients
	dir     string // scratch space; removed when the run ends
}

const (
	// setups is how often the runner builds a fresh workload instance;
	// setup_s is the median, the last instance is measured.
	setups = 5
	// minRounds keeps a median (and, traced, both a traced and an
	// untraced round) even when --seconds is shorter than a round.
	minRounds = 3
)

// roundStats is what one round of a workload did.
type roundStats struct {
	ops    int       // operations checked (attempted)
	failed int       // operations whose output check failed
	items  int       // units of throughput (cases, events, requests)
	lat    []float64 // per-item latency in ms
}

// workload is one benchmark workload instance.
type workload interface {
	// roundsPerSecond is the workload's round rate on the reference
	// machine (2 CPUs); it sizes a run's fixed number of rounds.
	roundsPerSecond() float64
	// setup builds the instance's inputs and services in dir.
	setup(dir string) error
	// round does one fixed unit of work; t is nil on untraced rounds.
	round(r int, t *tracer) (roundStats, error)
	// finish runs the checks that need the whole run and, in a traced
	// run, the layer replays.  It returns the failed operations it found
	// and the per-layer metrics (traced runs only).
	finish(lg ledger) (failed int, layers map[string]float64, err error)
	// close stops whatever setup started.
	close()
}

// workloads maps --workload names to constructors.
var workloads = map[string]func(config) workload{
	"fuzz-cold":    func(cfg config) workload { return newFuzz(cfg, false) },
	"fuzz-warm":    func(cfg config) workload { return newFuzz(cfg, true) },
	"scale-stream": func(cfg config) workload { return newScale(cfg) },
	"atsd-mixed":   func(cfg config) workload { return newAtsd(cfg) },
}

// ledger is what a traced run's rounds recorded.
type ledger struct {
	times  map[string]layerTime // per span name
	wall   time.Duration        // summed wall time of the traced rounds
	rounds int                  // traced rounds
}

// share is a span name's self time over the lane time (lanes × wall) of
// the traced rounds.
func (lg ledger) share(name string, lanes int) float64 {
	if lg.wall <= 0 || lanes <= 0 {
		return 0
	}
	return lg.times[name].self.Seconds() / (float64(lanes) * lg.wall.Seconds())
}

// measure sets the workload up, runs its rounds, checks the outputs and
// returns the result line.
//
// A run does a fixed amount of work: cfg.seconds × the workload's
// reference round rate, at least minRounds.  Work, not time, is fixed
// because atsd's store grows with every fresh case and later requests
// cost more; equal work keeps two runs, and two commits, comparable.  A
// run stops early once it has taken twice cfg.seconds, which bounds its
// time on a slow machine or commit.
//
// In a traced run the even rounds record spans and the odd rounds do
// not, so the tracing overhead is measured within the run.
func measure(newWorkload func(config) workload, cfg config, log io.Writer) (result, *tracer, error) {
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return result{}, nil, err
		}
		w = newWorkload(cfg)
		start := time.Now()
		err := w.setup(dir)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.close()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var (
		ops, failed int64
		lat         []float64
		rates       = map[bool][]float64{} // traced round? → items/s per round
		lg          ledger
	)
	rounds := max(minRounds, int(math.Round(cfg.seconds.Seconds()*w.roundsPerSecond())))
	runtime.GC()
	heap := startHeapSampler(2 * cfg.seconds)
	start := time.Now()
	for r := 0; r < rounds && (r < minRounds || time.Since(start) < 2*cfg.seconds); r++ {
		var t *tracer
		if tr != nil && r%2 == 0 {
			t = tr
		}
		t0 := time.Now()
		st, err := w.round(r, t)
		d := time.Since(t0)
		if err != nil {
			heap.stop()
			return result{}, nil, fmt.Errorf("round %d: %w", r, err)
		}
		ops += int64(st.ops)
		failed += int64(st.failed)
		if cfg.traced {
			// Only traced runs print latencies; untraced runs keep no
			// per-item data, so live_heap_p99_mib is the pipeline's own.
			lat = append(lat, st.lat...)
		}
		rates[t != nil] = append(rates[t != nil], float64(st.items)/d.Seconds())
		if t != nil {
			lg.wall += d
			lg.rounds++
		}
	}
	liveP99 := heap.stop()
	lg.times = tr.layers()

	more, layers, err := w.finish(lg)
	if err != nil {
		return result{}, nil, fmt.Errorf("finish: %w", err)
	}
	failed += int64(more)
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed}
	var vals map[string]float64
	defs := endToEnd
	if cfg.traced {
		defs, vals = perLayer, layers
		vals["trace_overhead_frac"] = median(rates[false])/median(rates[true]) - 1
		vals["p50_ms"] = percentile(lat, 50)
		vals["p99_ms"] = percentile(lat, 99)
		vals["latency_samples"] = float64(len(lat))
	} else {
		vals = map[string]float64{
			"setup_s":           median(setupS),
			"items_per_s":       median(rates[false]),
			"live_heap_p99_mib": liveP99 / (1 << 20),
		}
	}
	if res.Metrics, err = fill(defs, vals); err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(log, "atsperf: %d of %d rounds in %.1fs, %d ops (%d failed), setups %.3v s, items/s per round %.4g (traced %.4g), live heap p99 %.1f MiB\n",
		len(rates[false])+len(rates[true]), rounds, time.Since(start).Seconds(), ops, failed, setupS,
		median(rates[false]), median(rates[true]), liveP99/(1<<20))
	return res, tr, nil
}

// fill maps every defined metric to its value (0 when the workload did
// not report it) and rejects values the table does not define.
func fill(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not defined", name)
		}
	}
	return out, nil
}

// heapSampler samples the live heap, the bytes the latest GC found
// reachable (runtime/metrics /gc/heap/live:bytes), every 5 ms without
// stopping the world.  Unlike HeapAlloc it excludes garbage awaiting
// collection, so it measures retained state.  The 99th percentile of the
// samples keeps a peak that lasts (a 16384-rank world's pending state)
// and drops a spike of one slow GC cycle, whose concurrent mark counts the
// objects allocated meanwhile as live.
type heapSampler struct {
	stopc, done chan struct{}
	samples     []float64
}

// startHeapSampler starts sampling; expect sizes the sample buffer.
func startHeapSampler(expect time.Duration) *heapSampler {
	h := &heapSampler{
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
		samples: make([]float64, 0, expect/(5*time.Millisecond)+1),
	}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
	}
	read()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stopc:
				read()
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the 99th percentile in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return percentile(h.samples, 99)
}
