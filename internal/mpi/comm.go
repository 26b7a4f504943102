package mpi

import (
	"fmt"

	"repro/internal/distr"
	"repro/internal/trace"
	"repro/internal/xctx"
)

// Wildcards for point-to-point receives.
const (
	// AnySource matches a message from any source rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches any message tag (MPI_ANY_TAG).
	AnyTag = -1
)

// Undefined is the color value that excludes a rank from a Split
// (MPI_UNDEFINED).
const Undefined = -1

// commCore is the rank-shared part of a communicator: its context id, its
// member world ranks, and its collective engine.  Comm handles of all
// members point at the same core.
type commCore struct {
	w      *World
	cid    int32
	ranks  []int // member world ranks, indexed by comm-local rank
	engine *collEngine
}

// Comm is one rank's handle on a communicator.  It is the value passed to
// rank bodies and to every property function; it also carries the rank's
// execution context (clock, tracer, RNG), playing the role that the
// implicit process state plays in C MPI.  A Comm is owned by its rank's
// goroutine and must not be shared between goroutines.
type Comm struct {
	core    *commCore
	p       *proc
	myRank  int    // comm-local rank
	collSeq uint64 // per-communicator collective sequence number
}

// Rank returns the calling process's rank within this communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of processes in this communicator.
func (c *Comm) Size() int { return len(c.core.ranks) }

// WorldRank returns the calling process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.p.rank }

// WorldSize returns the total number of processes.
func (c *Comm) WorldSize() int { return len(c.p.w.procs) }

// ContextID returns the communicator's context id (0 for the world).
func (c *Comm) ContextID() int32 { return c.core.cid }

// Ctx exposes the rank's execution context for hybrid programs (OpenMP
// teams fork from it) and for the work layer.
func (c *Comm) Ctx() *xctx.Ctx { return c.p.ctx }

// WTime returns the rank's current time in seconds since the run epoch
// (MPI_Wtime).
func (c *Comm) WTime() float64 { return c.p.ctx.Now() }

// Begin opens a user trace region, used by property functions so that the
// analyzer's call-graph pane can localize findings (paper Fig 3.5).
func (c *Comm) Begin(name string) { c.p.ctx.Enter(name) }

// End closes the current user trace region.
func (c *Comm) End() { c.p.ctx.Exit() }

// Work executes secs seconds of sequential work on this rank (do_work).
func (c *Comm) Work(secs float64) { c.p.ctx.Work(secs) }

// DoWork is par_do_mpi_work: every member of the communicator calls it, and
// each executes df(rank, size, sf, dd) seconds of work.
func (c *Comm) DoWork(df distr.Func, dd distr.Desc, sf float64) {
	c.p.ctx.Work(df(c.myRank, c.Size(), sf, dd))
}

// SetBase sets the rank's default message buffer shape (set_base_comm).
func (c *Comm) SetBase(t Datatype, cnt int) {
	if cnt <= 0 {
		panic(fmt.Sprintf("mpi: SetBase with non-positive count %d", cnt))
	}
	c.p.baseType, c.p.baseCount = t, cnt
}

// Base returns the default buffer shape.
func (c *Comm) Base() (Datatype, int) { return c.p.baseType, c.p.baseCount }

// BaseBuf allocates a buffer of the default shape.
func (c *Comm) BaseBuf() *Buf { return AllocBuf(c.p.baseType, c.p.baseCount) }

// worldRankOf maps a comm-local rank to its world rank.
func (c *Comm) worldRankOf(local int) int {
	if local < 0 || local >= len(c.core.ranks) {
		panic(fmt.Sprintf("mpi: rank %d outside communicator of size %d", local, len(c.core.ranks)))
	}
	return c.core.ranks[local]
}

// init models MPI_Init: it charges the startup cost inside an MPI_Init
// region so the "High MPI Init/Finalize Overhead" property of small test
// programs (paper §3.2) is visible in traces.
func (c *Comm) init() {
	ctx := c.p.ctx
	ctx.Enter("MPI_Init")
	cost := c.p.w.opt.Cost
	ctx.Clock.Advance(cost.InitTime)
	ctx.Exit()
}

// finalize models MPI_Finalize: a synchronizing teardown.
func (c *Comm) finalize() {
	ctx := c.p.ctx
	ctx.Enter("MPI_Finalize")
	c.syncCollective(trace.CollBarrier, false)
	ctx.Clock.Advance(c.p.w.opt.Cost.FinalizeTime)
	ctx.Exit()
}

// commFromCore builds this rank's handle on a freshly created communicator.
func (c *Comm) commFromCore(core *commCore) *Comm {
	if core == nil {
		return nil
	}
	for i, wr := range core.ranks {
		if wr == c.p.rank {
			return &Comm{core: core, p: c.p, myRank: i}
		}
	}
	panic("mpi: rank missing from its own split group")
}

// Dup returns a new communicator with the same group (MPI_Comm_dup).  Like
// the real operation it is collective over the communicator.
func (c *Comm) Dup() *Comm {
	res := c.runColl(collArgs{kind: collSplit, color: 0, key: c.myRank}, nil)
	return c.commFromCore(res.newCore)
}

// Split partitions the communicator by color; ranks within each new
// communicator are ordered by (key, old rank) (MPI_Comm_split).  Ranks
// passing Undefined receive nil.
func (c *Comm) Split(color, key int) *Comm {
	if color < 0 && color != Undefined {
		panic(fmt.Sprintf("mpi: Split with negative color %d (use Undefined to opt out)", color))
	}
	res := c.runColl(collArgs{kind: collSplit, color: color, key: key}, nil)
	return c.commFromCore(res.newCore)
}
