package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analyzer"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/trace"
)

// ScaleRow is one (rank count, pipeline mode) measurement of the scale
// experiment.
type ScaleRow struct {
	Procs  int
	Mode   string // "streamed" or "materialized"
	Events int
	// PeakHeap is the sampled peak of runtime HeapAlloc over the whole
	// run+analyze phase, in bytes.
	PeakHeap uint64
	// HostMS is host wall-clock time for the phase in milliseconds.
	HostMS float64
	// Hash is the canonical profile content hash; the experiment fails if
	// the two modes of the same rank count ever disagree.
	Hash string
}

// scaleRounds and scaleInnerRegions size the scale program: each rank
// runs scaleRounds barrier-resynced phases of scaleInnerRegions traced
// compute segments, so the event count per rank (~scaleRounds ×
// (2·scaleInnerRegions + 3) + 2) is fixed and the total event volume
// grows linearly with the rank count.
const (
	scaleRounds       = 20
	scaleInnerRegions = 8
)

// scaleBody is the program of the scale experiment: the Fig 3.2
// imbalance-at-barrier workload, unrolled into many small traced compute
// segments so the trace is dominated by enter/exit events — the kind a
// materialized pipeline must hold in full and a streamed one can discard
// as regions close.
func scaleBody(c *mpi.Comm) {
	skew := 0.0002 * (1 + float64(c.Rank())/float64(c.Size()))
	c.Begin("scale_phase")
	for r := 0; r < scaleRounds; r++ {
		for k := 0; k < scaleInnerRegions; k++ {
			c.Begin("compute")
			c.Work(skew)
			c.End()
		}
		c.Barrier()
	}
	c.End()
}

// measurePeak runs f while sampling the heap high-water mark.  The GC runs
// twice up front so a prior phase's garbage (and sync.Pool victim caches)
// cannot inflate this phase's peak.
func measurePeak(f func() error) (peak uint64, elapsed time.Duration, err error) {
	runtime.GC()
	runtime.GC()
	var peakV atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peakV.Load()
			if ms.HeapAlloc <= cur || peakV.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	sample()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	start := time.Now()
	err = f()
	elapsed = time.Since(start)
	close(stop)
	<-done
	sample()
	return peakV.Load(), elapsed, err
}

// runScaleStreamed executes the scale program through the chunk-spool
// streaming pipeline and returns (events, profile hash).
func runScaleStreamed(procs int, body func(c *mpi.Comm)) (int, string, error) {
	prof, err := scaleStreamedProfile(procs, body)
	if err != nil {
		return 0, "", err
	}
	hash, err := prof.Hash()
	return prof.Events, hash, err
}

// scaleStreamedProfile executes the scale program through the chunk-spool
// streaming pipeline and returns its profile.
func scaleStreamedProfile(procs int, body func(c *mpi.Comm)) (*profile.Profile, error) {
	rep, info, err := profile.SpoolRun("", analyzer.Options{}, func(w *trace.ChunkWriter) error {
		_, err := mpi.Run(mpi.Options{Procs: procs, Sink: w}, body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return profile.FromAnalysis("scale", info, rep, profile.RunInfo{Procs: procs, Threads: 1})
}

// runScaleMaterialized executes the same program through the
// materialized pipeline: the run's in-memory spool is read back into a
// Trace, which Analyze sweeps.
func runScaleMaterialized(procs int, body func(c *mpi.Comm)) (int, string, error) {
	tr, err := mpi.Run(mpi.Options{Procs: procs}, body)
	if err != nil {
		return 0, "", err
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	prof, err := profile.FromRun("scale", tr, rep, profile.RunInfo{Procs: procs, Threads: 1})
	if err != nil {
		return 0, "", err
	}
	hash, err := prof.Hash()
	return len(tr.Events), hash, err
}

// scaleBigRounds/scaleBigInnerRegions size the big-rank scale program.
// The per-rank event count is deliberately light (~rounds×(2·inner+3)+2 ≈
// 68): at 10⁴–10⁵ ranks the interesting axis is rank count, not per-rank
// event volume, and the light body keeps a 65536-rank run inside a CI
// budget while still exercising every scheduler path (compute, barriers,
// a neighbor exchange).
const (
	scaleBigRounds       = 6
	scaleBigInnerRegions = 4
)

// scaleBigBody is the composite program of the big-rank scale experiment:
// skewed compute segments, barrier resyncs, and a ring Sendrecv so the
// event scheduler's p2p matching is on the measured path too.
func scaleBigBody(c *mpi.Comm) {
	skew := 0.0002 * (1 + float64(c.Rank())/float64(c.Size()))
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	buf := mpi.AllocBuf(mpi.TypeDouble, 4)
	defer mpi.FreeBuf(buf)
	c.Begin("scale_phase")
	for r := 0; r < scaleBigRounds; r++ {
		for k := 0; k < scaleBigInnerRegions; k++ {
			c.Begin("compute")
			c.Work(skew)
			c.End()
		}
		c.Sendrecv(buf, next, 1, buf, prev, 1)
		c.Barrier()
	}
	c.End()
}

// ScaleBigRow is one rank-count measurement of the big-rank experiment.
type ScaleBigRow struct {
	Procs    int
	Events   int
	PeakHeap uint64
	HostMS   float64
	// EventsPerSec is trace-event throughput over the whole
	// run+stream+analyze phase.
	EventsPerSec float64
	Hash         string
}

// ScaleStreamed runs the big-rank scale experiment: the composite program
// at 10³–10⁵ ranks through the event engine and the streaming pipeline
// (the materialized pipeline is deliberately absent — holding a 65536-rank
// trace in memory is the failure mode this experiment demonstrates the
// absence of).  Memory must stay O(ranks + pending events): the peak-heap
// column is the evidence, and the atsperf ledger's scale-stream workload
// tracks it release to release.
func ScaleStreamed(w io.Writer, ranks []int) ([]ScaleBigRow, error) {
	fmt.Fprintln(w, "== scalebig: event-engine composite at 10^3..10^5 ranks (streamed) ==")
	fmt.Fprintf(w, "(%d rounds x %d compute segments + ring exchange per rank; peak = sampled HeapAlloc high-water mark)\n",
		scaleBigRounds, scaleBigInnerRegions)
	fmt.Fprintf(w, "%7s %10s %10s %10s %12s  %s\n",
		"procs", "events", "peak-MiB", "host-ms", "events/sec", "hash")
	var rows []ScaleBigRow
	for _, p := range ranks {
		var events int
		var hash string
		peak, dur, err := measurePeak(func() (err error) {
			events, hash, err = runScaleStreamed(p, scaleBigBody)
			return err
		})
		if err != nil {
			return rows, fmt.Errorf("scalebig: P=%d: %w", p, err)
		}
		eps := float64(events) / dur.Seconds()
		rows = append(rows, ScaleBigRow{
			Procs: p, Events: events, PeakHeap: peak,
			HostMS: float64(dur.Microseconds()) / 1e3, EventsPerSec: eps, Hash: hash,
		})
		fmt.Fprintf(w, "%7d %10d %10.1f %10.0f %12.0f  %s\n",
			p, events, float64(peak)/(1<<20), float64(dur.Microseconds())/1e3, eps, hash[:12])
	}
	return rows, nil
}

// Scale compares the streamed and materialized analysis pipelines at
// growing rank counts: same program, same report (the profile hashes must
// match — the experiment fails otherwise), very different peak memory.
// The streamed phase runs first within each rank count so buffer-pool
// reuse from a materialized run can never subsidize its numbers.
func Scale(w io.Writer, ranks []int) ([]ScaleRow, error) {
	body := scaleBody
	fmt.Fprintln(w, "== scale: streamed vs materialized run+analysis ==")
	fmt.Fprintf(w, "(imbalance at barrier, %d rounds x %d compute segments per rank; peak = sampled HeapAlloc high-water mark)\n",
		scaleRounds, scaleInnerRegions)
	fmt.Fprintf(w, "%6s  %-12s %10s %10s %9s  %-12s %s\n",
		"procs", "mode", "events", "peak-MiB", "host-ms", "hash", "streamed/materialized peak")
	var rows []ScaleRow
	for _, p := range ranks {
		var sEvents, mEvents int
		var sHash, mHash string
		sPeak, sDur, err := measurePeak(func() (err error) {
			sEvents, sHash, err = runScaleStreamed(p, body)
			return err
		})
		if err != nil {
			return rows, fmt.Errorf("scale: streamed P=%d: %w", p, err)
		}
		mPeak, mDur, err := measurePeak(func() (err error) {
			mEvents, mHash, err = runScaleMaterialized(p, body)
			return err
		})
		if err != nil {
			return rows, fmt.Errorf("scale: materialized P=%d: %w", p, err)
		}
		if sHash != mHash {
			return rows, fmt.Errorf("scale: P=%d: streamed profile hash %s != materialized %s", p, sHash, mHash)
		}
		if sEvents != mEvents {
			return rows, fmt.Errorf("scale: P=%d: streamed %d events != materialized %d", p, sEvents, mEvents)
		}
		ratio := float64(sPeak) / float64(mPeak)
		rows = append(rows,
			ScaleRow{Procs: p, Mode: "streamed", Events: sEvents, PeakHeap: sPeak,
				HostMS: float64(sDur.Microseconds()) / 1e3, Hash: sHash},
			ScaleRow{Procs: p, Mode: "materialized", Events: mEvents, PeakHeap: mPeak,
				HostMS: float64(mDur.Microseconds()) / 1e3, Hash: mHash})
		fmt.Fprintf(w, "%6d  %-12s %10d %10.1f %9.0f  %-12s\n",
			p, "streamed", sEvents, float64(sPeak)/(1<<20),
			float64(sDur.Microseconds())/1e3, sHash[:12])
		fmt.Fprintf(w, "%6d  %-12s %10d %10.1f %9.0f  %-12s %.1f%%\n",
			p, "materialized", mEvents, float64(mPeak)/(1<<20),
			float64(mDur.Microseconds())/1e3, mHash[:12], ratio*100)
	}
	fmt.Fprintln(w, "(identical hashes per rank count: the streamed pipeline is byte-equivalent)")
	return rows, nil
}
