// Benchmark harness regenerating every evaluation artifact of the paper
// (see DESIGN.md §4 for the experiment index).  Each BenchmarkFigNN/
// BenchmarkChN corresponds to one figure or procedure of the paper; the
// ablation benches cover this reproduction's own design decisions.  The
// custom metrics reported via b.ReportMetric carry the paper-facing
// numbers (waiting times, severities, detection counts) alongside the
// usual ns/op.
package repro_test

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/asl"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/distr"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/grindstone"
	"repro/internal/microbench"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/rescache"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/xctx"
)

// BenchmarkFig32_SingleProperty regenerates Figure 3.2: single-property
// test programs for imbalance_at_mpi_barrier with different distributions
// and severities, plus the init/finalize-overhead observation.
func BenchmarkFig32_SingleProperty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig32(io.Discard, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Severity must track configuration: row 3 (x2) must exceed
			// row 2 (x0.5).
			b.ReportMetric(res.Sweep[0].Wait, "wait_block2_s")
			b.ReportMetric(res.Sweep[1].Wait, "wait_linear_s")
			b.ReportMetric(res.InitOverheadSmall*100, "init_ovh_small_%")
			b.ReportMetric(res.InitOverheadLarge*100, "init_ovh_large_%")
			if res.InitOverheadSmall <= res.InitOverheadLarge {
				b.Fatalf("init overhead should dominate the tiny program: %v vs %v",
					res.InitOverheadSmall, res.InitOverheadLarge)
			}
		}
	}
}

// BenchmarkFig33_CompositeAllMPI regenerates Figure 3.3: the composite
// program exercising every MPI property function; the analyzer must find
// all six property classes.
func BenchmarkFig33_CompositeAllMPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig33(io.Discard, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			detected := 0
			for _, ok := range res.Detected {
				if ok {
					detected++
				}
			}
			b.ReportMetric(float64(detected), "classes_detected")
			b.ReportMetric(float64(res.Events), "trace_events")
			if detected != len(res.Detected) {
				b.Fatalf("only %d of %d property classes detected", detected, len(res.Detected))
			}
		}
	}
}

// BenchmarkFig34_TwoCommunicators regenerates Figure 3.4: two property
// sets executing concurrently in split communicators.
func BenchmarkFig34_TwoCommunicators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := mpi.Run(mpi.Options{Procs: 16}, func(c *mpi.Comm) {
			core.TwoCommunicators(c, core.DefaultComposite())
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(tr.Events)), "trace_events")
		}
	}
}

// BenchmarkFig35_ExpertAnalysis regenerates Figure 3.5: the EXPERT-style
// analysis of the two-communicator run, checking the three-pane
// localization (property, call path, ranks).
func BenchmarkFig35_ExpertAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig34And35(io.Discard, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if !res.LateBcastOnUpperHalfOnly || !res.TopPathHasBcast {
				b.Fatalf("localization failed: %+v", res)
			}
			b.ReportMetric(float64(res.RootWorldRank), "bcast_root_world_rank")
		}
	}
}

// BenchmarkPositiveCorrectness runs every registered property function
// with defaults and verifies the analyzer's verdicts (§1 positive
// correctness).
func BenchmarkPositiveCorrectness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PositiveCorrectness(io.Discard, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			correct := 0
			for _, r := range rows {
				if r.Correct {
					correct++
				}
			}
			b.ReportMetric(float64(correct), "properties_correct")
			b.ReportMetric(float64(len(rows)), "properties_total")
			if correct != len(rows) {
				b.Fatalf("%d of %d properties misdetected", len(rows)-correct, len(rows))
			}
		}
	}
}

// BenchmarkNegativeCorrectness runs the well-tuned programs; any finding
// is a failure (§1 negative correctness).
func BenchmarkNegativeCorrectness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.NegativeCorrectness(io.Discard, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rs {
				if !r.AnalyzedOK {
					b.Fatalf("%s produced spurious finding %s", r.Program, r.TopProperty)
				}
			}
			b.ReportMetric(float64(len(rs)), "clean_programs")
		}
	}
}

// BenchmarkCh2_SemanticsPreservation runs the validation suite with and
// without instrumentation and compares digests (Chapter 2 procedure).
func BenchmarkCh2_SemanticsPreservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ch2(io.Discard, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if !res.SemanticsPreserved {
				b.Fatal("instrumentation changed program results")
			}
			b.ReportMetric(float64(res.Checks), "checks")
			b.ReportMetric(res.Intrusiveness.Overhead*100, "tracing_ovh_%")
		}
	}
}

// BenchmarkCh4_Applications runs the mini-applications tuned and with
// injected pathologies (Chapter 4).
func BenchmarkCh4_Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ch4Applications(io.Discard, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ok := 0
			for _, r := range rows {
				if r.AsDesired {
					ok++
				}
			}
			b.ReportMetric(float64(ok), "cases_as_desired")
			if ok != len(rows) {
				b.Fatalf("%d of %d application cases misbehaved: %+v", len(rows)-ok, len(rows), rows)
			}
		}
	}
}

// BenchmarkWorkAccuracy measures the §3.1.1 work-specification accuracy
// (virtual mode exactness; real mode only under -bench with -timeout
// headroom, here virtual only for stability).
func BenchmarkWorkAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WorkAccuracy(io.Discard, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !res.VirtualExact {
			b.Fatal("virtual work not exact")
		}
	}
}

// BenchmarkAblation_VirtualVsReal and the protocol ablation cover the
// reproduction's design decisions (DESIGN.md §5).
func BenchmarkAblation_EagerRendezvous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablations(io.Discard, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.EagerLateReceiverWait, "eager_wait_s")
			b.ReportMetric(res.RendezvousLateReceiverWait, "rendezvous_wait_s")
			if res.EagerLateReceiverWait != 0 || res.RendezvousLateReceiverWait < 0.09 {
				b.Fatalf("protocol ablation unexpected: %+v", res)
			}
		}
	}
}

// BenchmarkSweep_SeverityScaling drives the ZENTURIO-style parameter
// sweep used throughout §3.2.
func BenchmarkSweep_SeverityScaling(b *testing.B) {
	spec, _ := core.Get("late_sender")
	pts := generator.GridFloat(spec, "extrawork", []float64{0.01, 0.02, 0.04, 0.08}, 8, 1)
	for i := 0; i < b.N; i++ {
		rs, err := generator.Sweep("late_sender", pts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rs[len(rs)-1].Wait/rs[0].Wait, "wait_ratio_8x")
		}
	}
}

// --- substrate microbenchmarks (SKaMPI / EPCC counterparts) -------------

func BenchmarkMicro_PingPong1K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := microbench.PingPong([]int{1024}, 10, vtime.Virtual)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rs[0].RTT*1e6, "model_rtt_us")
		}
	}
}

func BenchmarkMicro_Collectives16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := microbench.Collectives([]int{16}, 1024, 5, vtime.Virtual); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_OMPOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := microbench.OMPOverheads(4, 10, vtime.Virtual); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntime_* measure the host cost of the substrate itself (how
// expensive is simulating a rank/thread operation), which bounds the
// suite's usable scale.

func BenchmarkRuntime_P2PMessage(b *testing.B) {
	_, err := mpi.Run(mpi.Options{Procs: 2, Untraced: true}, func(c *mpi.Comm) {
		buf := mpi.AllocBuf(mpi.TypeByte, 64)
		c.Barrier()
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(buf, 1, 0)
			} else {
				c.Recv(buf, 0, 0)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntime_Barrier8(b *testing.B) {
	_, err := mpi.Run(mpi.Options{Procs: 8, Untraced: true}, func(c *mpi.Comm) {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntime_Allreduce8(b *testing.B) {
	_, err := mpi.Run(mpi.Options{Procs: 8, Untraced: true}, func(c *mpi.Comm) {
		s := mpi.AllocBuf(mpi.TypeDouble, 64)
		r := mpi.AllocBuf(mpi.TypeDouble, 64)
		for i := 0; i < b.N; i++ {
			c.Allreduce(s, r, mpi.OpSum)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntime_OMPParallel(b *testing.B) {
	_, err := omp.Run(omp.RunOptions{Threads: 4, Untraced: true},
		func(ctx *xctx.Ctx, opt omp.Options) {
			for i := 0; i < b.N; i++ {
				omp.Parallel(ctx, opt, func(tc *omp.TC) {})
			}
		})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntime_TraceMergeAnalyze(b *testing.B) {
	tr, err := mpi.Run(mpi.Options{Procs: 8}, func(c *mpi.Comm) {
		core.CompositeAllMPI(c, core.DefaultComposite())
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.Analyze(tr, analyzer.Options{})
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
}

func BenchmarkRuntime_TraceSerialize(b *testing.B) {
	tr, err := mpi.Run(mpi.Options{Procs: 8}, func(c *mpi.Comm) {
		core.CompositeAllMPI(c, core.DefaultComposite())
	})
	if err != nil {
		b.Fatal(err)
	}
	// Size the MB/s metric from one untimed write up front: SetBytes must
	// be in effect for the whole timed loop, not applied after the fact.
	n, err := tr.Write(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntime_ConformanceSweepCold and ..._Warm measure the result
// cache (internal/rescache) at the conformance-sweep granularity the
// tentpole targets: Cold runs a 10-seed oracle sweep against an empty
// store on every iteration (run+trace+analyze plus write-through), Warm
// runs the same sweep against a pre-populated store (pure cache
// replays).  The ratio between the two ns/op figures is the speedup a
// repeated `atsfuzz run -cache` sweep sees; doc/PERFORMANCE.md records
// the measured values.

// benchSweep runs one 10-seed conformance sweep through the cache.
func benchSweep(b *testing.B) {
	for seed := uint64(1); seed <= 10; seed++ {
		cs := conformance.Generate(seed, conformance.Config{})
		if _, err := conformance.CheckCached(cs, conformance.CheckOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntime_ConformanceSweepCold(b *testing.B) {
	defer conformance.SetResultCache(nil)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := rescache.Open(filepath.Join(b.TempDir(), "rescache"))
		if err != nil {
			b.Fatal(err)
		}
		conformance.SetResultCache(store)
		b.StartTimer()
		benchSweep(b)
	}
}

func BenchmarkRuntime_ConformanceSweepWarm(b *testing.B) {
	store, err := rescache.Open(filepath.Join(b.TempDir(), "rescache"))
	if err != nil {
		b.Fatal(err)
	}
	conformance.SetResultCache(store)
	defer conformance.SetResultCache(nil)
	benchSweep(b) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSweep(b)
	}
	st := store.Stats()
	if st.Hits == 0 {
		b.Fatal("warm sweep never hit the cache")
	}
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
}

// BenchmarkGenerator_AllPrograms measures single-property program
// generation (§3.2).
func BenchmarkGenerator_AllPrograms(b *testing.B) {
	specs := core.All()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := generator.Generate(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(specs)), "programs")
}

// BenchmarkTimelineRender measures the Vampir-stand-in renderer.
func BenchmarkTimelineRender(b *testing.B) {
	tr, err := mpi.Run(mpi.Options{Procs: 16}, func(c *mpi.Comm) {
		core.TwoCommunicators(c, core.DefaultComposite())
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Timeline(tr, trace.TimelineOptions{Width: 120})
	}
}

// BenchmarkASL_CatalogEval measures parsing + evaluating a user ASL
// property catalog over an analyzed trace.
func BenchmarkASL_CatalogEval(b *testing.B) {
	tr, err := mpi.Run(mpi.Options{Procs: 8}, func(c *mpi.Comm) {
		core.CompositeAllMPI(c, core.DefaultComposite())
	})
	if err != nil {
		b.Fatal(err)
	}
	rep := analyzer.Analyze(tr, analyzer.Options{})
	const catalog = `
	property p2p { condition wait("late_sender") + wait("late_receiver") > 0.1;
	               severity (wait("late_sender") + wait("late_receiver")) / total_time(); }
	property coll { condition wait("late_broadcast") > 0 && wait("early_reduce") > 0; }
	property startup { condition region_time("MPI_Init") / total_time() > 0.5; }
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := asl.EvalAll(catalog, rep)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			holds := 0
			for _, f := range fs {
				if f.Holds {
					holds++
				}
			}
			b.ReportMetric(float64(holds), "holding")
			if holds != 2 {
				b.Fatalf("expected 2 holding properties, got %d", holds)
			}
		}
	}
}

// BenchmarkGrindstone runs the Grindstone-style diagnostic programs
// (paper Ch. 2) and verifies their documented diagnoses.
func BenchmarkGrindstone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range grindstone.Programs() {
			tr, err := mpi.Run(mpi.Options{Procs: 4}, func(c *mpi.Comm) {
				p.Run(c, grindstone.Config{})
			})
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			if i == 0 {
				rep := analyzer.Analyze(tr, analyzer.Options{})
				switch p.Name {
				case "passive_server":
					if rep.Wait(analyzer.PropLateSender) <= 0 {
						b.Fatalf("%s: diagnosis missing", p.Name)
					}
				case "random_barrier":
					if rep.Wait(analyzer.PropWaitAtBarrier) <= 0 {
						b.Fatalf("%s: diagnosis missing", p.Name)
					}
				case "small_messages":
					if rep.Messages.AvgBytes > 64 {
						b.Fatalf("%s: avg message size %v", p.Name, rep.Messages.AvgBytes)
					}
				case "big_messages":
					if rep.Messages.AvgBytes < 1<<19 {
						b.Fatalf("%s: avg message size %v", p.Name, rep.Messages.AvgBytes)
					}
				}
			}
		}
	}
	b.ReportMetric(float64(len(grindstone.Programs())), "programs")
}

// BenchmarkScale_CompositeRanks measures the substrate's host-side cost at
// growing simulated rank counts — the scale ceiling a user cares about.
func BenchmarkScale_CompositeRanks(b *testing.B) {
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := mpi.Run(mpi.Options{Procs: procs, Timeout: 120 * time.Second},
					func(c *mpi.Comm) {
						core.ImbalanceAtMPIBarrier(c,
							mustDF(b), distrV2(0.001, 0.01), 3)
						buf := mpi.AllocBuf(mpi.TypeDouble, 16)
						c.Bcast(buf, 0)
					})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(tr.Events)), "events")
				}
			}
		})
	}
}

// BenchmarkScale_EventEngineRanks is the tentpole scale benchmark: the
// big-rank composite (compute skew, ring exchange, barriers) through the
// event-driven scheduler and the streaming pipeline at 4096–65536 simulated
// ranks in one process.  Reported metrics: trace events, peak sampled
// HeapAlloc (the O(ranks + pending events) memory claim), and event
// throughput.  doc/PERFORMANCE.md discusses them; the atsperf ledger's
// scale-stream workload is the tracked end-to-end figure.
func BenchmarkScale_EventEngineRanks(b *testing.B) {
	for _, procs := range []int{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.ScaleStreamed(io.Discard, []int{procs})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					r := rows[0]
					b.ReportMetric(float64(r.Events), "events")
					b.ReportMetric(float64(r.PeakHeap)/(1<<20), "peak-MiB")
					b.ReportMetric(r.EventsPerSec, "events/sec")
				}
			}
		})
	}
}

// BenchmarkStreamAnalyze measures the bounded-memory streaming pipeline
// in two parts: Run, the engine running a world into an in-memory chunk
// spool, and Analyze, NewStream + AnalyzeStream (spool-order read and
// incremental analysis) over a spool built outside the timer, so the
// analysis' B/op and allocs/op are its own and not the engine's, whose
// allocations follow the collector's timing.  Two bodies: BenchmarkScale_CompositeRanks'
// barrier imbalance and broadcast at 256 and 1024 ranks, and
// scale-stream's ring (skewed compute, ring Sendrecv, Barrier) at 1024
// ranks, whose messages put the analyzer's point-to-point pairing into
// Analyze's B/op (see doc/PERFORMANCE.md).
func BenchmarkStreamAnalyze(b *testing.B) {
	barrier := func(c *mpi.Comm) {
		core.ImbalanceAtMPIBarrier(c, mustDF(b), distrV2(0.001, 0.01), 3)
		buf := mpi.AllocBuf(mpi.TypeDouble, 16)
		c.Bcast(buf, 0)
	}
	for _, w := range []struct {
		name  string
		procs int
		body  func(c *mpi.Comm)
		prop  string // a property the analysis must find
	}{
		{"barrier", 256, barrier, analyzer.PropWaitAtBarrier},
		{"barrier", 1024, barrier, analyzer.PropWaitAtBarrier},
		{"ring", 1024, ringBench, analyzer.PropLateSender},
	} {
		run := func(sink *trace.ChunkWriter) error {
			_, err := mpi.Run(mpi.Options{Procs: w.procs, Timeout: 120 * time.Second, Sink: sink}, w.body)
			return err
		}
		b.Run(fmt.Sprintf("%s/procs=%d/Run", w.name, w.procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spool, err := trace.SpoolInMemory(run)
				if err != nil {
					b.Fatal(err)
				}
				spool.Release()
			}
		})
		b.Run(fmt.Sprintf("%s/procs=%d/Analyze", w.name, w.procs), func(b *testing.B) {
			spool, err := trace.SpoolInMemory(run)
			if err != nil {
				b.Fatal(err)
			}
			defer spool.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := spool.Reader()
				if err != nil {
					b.Fatal(err)
				}
				st, err := trace.NewStream(r)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := analyzer.AnalyzeStream(st, analyzer.Options{})
				st.Close()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(st.Events()), "events")
					if rep.Wait(w.prop) <= 0 {
						b.Fatalf("streamed analysis missed %s", w.prop)
					}
				}
			}
		})
	}
}

// ringBench is scale-stream's world body: six rounds of four skewed
// compute segments, a ring Sendrecv and a Barrier.
func ringBench(c *mpi.Comm) {
	work := 0.0001 * (1 + float64(c.Rank())/float64(c.Size()))
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

func mustDF(b *testing.B) distr.Func {
	f, ok := distr.Lookup("linear")
	if !ok {
		b.Fatal("linear distribution missing")
	}
	return f
}

func distrV2(low, high float64) distr.Desc {
	return distr.Val2{Low: low, High: high}
}
