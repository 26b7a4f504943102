package mpi

import (
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestCollectivePayloadsSurviveRecycling runs rounds of the payload
// collectives (all but the VBuf variants Gatherv and Scatterv) back to
// back, with values unique to the round and rank, on both Virtual-mode
// engines and in Real mode, and checks every received element.  Send buffers are read in place, gathers write the receive
// buffers directly, and every other output slab serves the
// communicator's next instance once the last participant has copied its
// result out; a round reading a stale or shared slab would see another
// round's values, and under -race a Real-mode copy-out overlapping the
// next instance's compute shows as a race.
func TestCollectivePayloadsSurviveRecycling(t *testing.T) {
	const P, rounds = 5, 40
	for _, tc := range []struct {
		name   string
		mode   vtime.Mode
		engine Engine
	}{
		{"event", vtime.Virtual, EngineEvent},
		{"goroutine", vtime.Virtual, EngineGoroutine},
		{"real", vtime.Real, EngineEvent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Procs: P, Mode: tc.mode, Engine: tc.engine, Untraced: true, Timeout: 20 * time.Second}
			mustRun(t, opt, func(c *Comm) {
				me := int64(c.Rank())
				one := AllocBuf(TypeInt, 1)
				all := AllocBuf(TypeInt, P)
				sendP := AllocBuf(TypeInt, P)
				defer func() { FreeBuf(one); FreeBuf(all); FreeBuf(sendP) }()
				ones := []int{1, 1, 1, 1, 1}
				val := func(r, rank int64) int64 { return r*1000 + rank }
				check := func(what string, got, want int64) {
					if got != want {
						t.Errorf("rank %d %s = %d, want %d", me, what, got, want)
					}
				}
				for r := int64(0); r < rounds; r++ {
					root := int(r % P)

					one.SetInt64(0, val(r, me))
					c.Bcast(one, root)
					check("Bcast", one.Int64(0), val(r, int64(root)))

					one.SetInt64(0, val(r, me))
					c.Allreduce(one, all, OpSum) // all[0] only: count 1
					check("Allreduce", all.Int64(0), P*r*1000+P*(P-1)/2)

					one.SetInt64(0, val(r, me))
					c.Allgather(one, all)
					for i := int64(0); i < P; i++ {
						check("Allgather", all.Int64(int(i)), val(r, i))
					}

					for j := 0; j < P; j++ {
						sendP.SetInt64(j, val(r, me*10+int64(j)))
					}
					c.Alltoall(sendP, all)
					for i := int64(0); i < P; i++ {
						check("Alltoall", all.Int64(int(i)), val(r, i*10+me))
					}

					c.Alltoallv(sendP, ones, all)
					for i := int64(0); i < P; i++ {
						check("Alltoallv", all.Int64(int(i)), val(r, i*10+me))
					}

					one.SetInt64(0, val(r, me))
					c.Gather(one, all, root)
					if c.Rank() == root {
						for i := int64(0); i < P; i++ {
							check("Gather", all.Int64(int(i)), val(r, i))
						}
					}

					c.Allgatherv(one, all, ones)
					for i := int64(0); i < P; i++ {
						check("Allgatherv", all.Int64(int(i)), val(r, i))
					}

					c.Reduce(one, all, OpSum, root) // all[0] only
					if c.Rank() == root {
						check("Reduce", all.Int64(0), P*r*1000+P*(P-1)/2)
					}

					for j := 0; j < P; j++ {
						sendP.SetInt64(j, val(r, int64(j)))
					}
					c.Scatter(sendP, one, root)
					check("Scatter", one.Int64(0), val(r, me))

					one.SetInt64(0, val(r, me))
					c.Scan(one, all, OpSum) // all[0] only
					check("Scan", all.Int64(0), (me+1)*r*1000+me*(me+1)/2)

					for j := 0; j < P; j++ {
						sendP.SetInt64(j, val(r, int64(j)))
					}
					c.ReduceScatter(sendP, one, ones, OpSum)
					check("ReduceScatter", one.Int64(0), P*val(r, me))
				}
			})
		})
	}
}
