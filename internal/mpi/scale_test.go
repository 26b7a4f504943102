package mpi

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/distr"
	"repro/internal/trace"
)

// TestScale64Ranks exercises the substrate at a "real-world size" rank
// count: a multi-phase program over 64 simulated ranks must run, stay
// deterministic, and produce a well-formed trace.
func TestScale64Ranks(t *testing.T) {
	const P = 64
	opt := Options{Procs: P, Timeout: 120 * time.Second}
	run := func() *trace.Trace {
		tr, err := Run(opt, func(c *Comm) {
			dd := distr.Val2{Low: 0.001, High: 0.01}
			c.DoWork(distr.Linear, dd, 1.0)
			c.Barrier()
			b := AllocBuf(TypeDouble, 32)
			c.Bcast(b, 0)
			s := AllocBuf(TypeInt, 1)
			r := AllocBuf(TypeInt, 1)
			s.SetInt64(0, int64(c.Rank()))
			c.Allreduce(s, r, OpSum)
			if r.Int64(0) != P*(P-1)/2 {
				t.Errorf("allreduce over %d ranks = %d", P, r.Int64(0))
			}
			PatternShift(c, s, r, DirUp, PatternOpts{})
			sub := c.Split(c.Rank()%4, c.Rank())
			sub.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr1 := run()
	tr2 := run()
	if len(tr1.Events) != len(tr2.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(tr1.Events), len(tr2.Events))
	}
	for i := range tr1.Events {
		if tr1.Events[i].Time != tr2.Events[i].Time {
			t.Fatalf("64-rank run not deterministic at event %d", i)
		}
	}
	if len(tr1.Locations) != P {
		t.Errorf("locations = %d", len(tr1.Locations))
	}
}

// TestQuickRingDataIntegrity: for random payload sizes and rank counts,
// a full ring circulation returns every rank's original data.
func TestQuickRingDataIntegrity(t *testing.T) {
	inv := func(pRaw, nRaw uint8) bool {
		P := int(pRaw%6) + 2  // 2..7 ranks
		n := int(nRaw%64) + 1 // 1..64 elements
		ok := true
		_, err := Run(Options{Procs: P, Untraced: true, Timeout: 30 * time.Second},
			func(c *Comm) {
				s := AllocBuf(TypeInt, n)
				r := AllocBuf(TypeInt, n)
				s.FillSeq(c.Rank())
				for step := 0; step < P; step++ {
					c.Sendrecv(s, (c.Rank()+1)%P, 0, r, (c.Rank()+P-1)%P, 0)
					s, r = r, s
				}
				want := AllocBuf(TypeInt, n)
				want.FillSeq(c.Rank())
				if !s.Equal(want) {
					ok = false
				}
			})
		return err == nil && ok
	}
	if err := quick.Check(inv, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickReduceMatchesSerial: Allreduce(SUM) over random contributions
// equals the serially computed sum.
func TestQuickReduceMatchesSerial(t *testing.T) {
	inv := func(pRaw uint8, vals [8]int16) bool {
		P := int(pRaw%5) + 2 // 2..6 ranks
		var want int64
		for i := 0; i < P; i++ {
			want += int64(vals[i%8])
		}
		ok := true
		_, err := Run(Options{Procs: P, Untraced: true, Timeout: 30 * time.Second},
			func(c *Comm) {
				s := AllocBuf(TypeInt, 1)
				r := AllocBuf(TypeInt, 1)
				s.SetInt64(0, int64(vals[c.Rank()%8]))
				c.Allreduce(s, r, OpSum)
				if r.Int64(0) != want {
					ok = false
				}
			})
		return err == nil && ok
	}
	if err := quick.Check(inv, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickVBufCountsAgree: every rank derives identical counts/displs
// from the same distribution, for random distribution parameters.
func TestQuickVBufCountsAgree(t *testing.T) {
	inv := func(lowRaw, highRaw uint8) bool {
		low := float64(lowRaw%32) + 1
		high := low + float64(highRaw%32)
		agree := true
		_, err := Run(Options{Procs: 4, Untraced: true, Timeout: 30 * time.Second},
			func(c *Comm) {
				v := AllocVBuf(c, TypeDouble, distr.Linear,
					distr.Val2{Low: low, High: high}, 1.0, 2)
				// Gatherv exercises the agreement: mismatched counts
				// would corrupt or crash.
				for i := 0; i < v.Buf.Count; i++ {
					v.Buf.SetFloat64(i, float64(c.Rank()))
				}
				c.Gatherv(v)
				if c.Rank() == 2 {
					off := 0
					for rank, n := range v.Counts {
						for i := 0; i < n; i++ {
							if v.RootBuf.Float64(off) != float64(rank) {
								agree = false
							}
							off++
						}
					}
				}
			})
		return err == nil && agree
	}
	if err := quick.Check(inv, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// BenchmarkEventEngineRanks measures raw event-engine dispatch throughput
// at 10³–10⁵ ranks, untraced, so the scheduler itself (heap churn, park/
// resume handoffs, collective completion) dominates the measurement
// rather than trace recording.
func BenchmarkEventEngineRanks(b *testing.B) {
	for _, procs := range []int{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runEngineBench(procs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(procs), "ranks")
		})
	}
}

// runEngineBench runs BenchmarkEventEngineRanks's world: three rounds of
// a ring Sendrecv and an Allreduce, untraced, on the event engine.
func runEngineBench(procs int) error {
	_, err := Run(Options{Procs: procs, Untraced: true, Engine: EngineEvent,
		Timeout: 300 * time.Second}, func(c *Comm) {
		buf := AllocBuf(TypeDouble, 4)
		defer FreeBuf(buf)
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		for round := 0; round < 3; round++ {
			c.Sendrecv(buf, next, 1, buf, prev, 1)
			c.Allreduce(buf, buf, OpSum)
		}
	})
	return err
}
