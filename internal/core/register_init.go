package core

import "repro/internal/analyzer"

// This file registers every built-in property function with the registry.
// The registrations are the machine-readable form of the paper's
// "currently implemented performance property functions" list (§3.1.5),
// extended with the hybrid and additional properties foreseen as future
// work (§5).  The single-property program generator (§3.2) and the CLI
// driver derive flags and main programs from these specs.

func init() {
	registerMPIProps()
	registerOMPProps()
	registerHybridProps()
}

func registerMPIProps() {
	mustRegister(&Spec{
		Name: "late_sender", Paradigm: ParadigmMPI,
		Help: "receivers block because the matching sends start too late",
		Params: []Param{
			fparam("basework", DefaultBasework, "base work per iteration [s]"),
			fparam("extrawork", DefaultExtrawork, "extra work of the sending (even) ranks [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			LateSender(env.Comm, a.F("basework"), a.F("extrawork"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p/2) * a.F("extrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateSender,
	})
	mustRegister(&Spec{
		Name: "late_sender_nonblocking", Paradigm: ParadigmMPI,
		Help: "late sender realized with MPI_Isend/MPI_Irecv/MPI_Wait",
		Params: []Param{
			fparam("basework", DefaultBasework, "base work per iteration [s]"),
			fparam("extrawork", DefaultExtrawork, "extra work of the sending (even) ranks [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			LateSenderNonBlocking(env.Comm, a.F("basework"), a.F("extrawork"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p/2) * a.F("extrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateSender,
	})
	mustRegister(&Spec{
		Name: "late_receiver", Paradigm: ParadigmMPI,
		Help: "synchronous senders block because the receivers arrive late",
		Params: []Param{
			fparam("basework", DefaultBasework, "base work per iteration [s]"),
			fparam("extrawork", DefaultExtrawork, "extra work of the receiving (odd) ranks [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			LateReceiver(env.Comm, a.F("basework"), a.F("extrawork"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p/2) * a.F("extrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateReceiver,
	})
	mustRegister(&Spec{
		Name: "imbalance_at_mpi_barrier", Paradigm: ParadigmMPI,
		Help: "distribution-driven work imbalance in front of MPI_Barrier",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over ranks"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceAtMPIBarrier(env.Comm, df, dd, a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], p, a.I("r"))
		},
		Detects: analyzer.PropWaitAtBarrier,
	})
	mustRegister(&Spec{
		Name: "imbalance_at_mpi_alltoall", Paradigm: ParadigmMPI,
		Help: "work imbalance in front of the N×N exchange MPI_Alltoall",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over ranks"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceAtMPIAlltoall(env.Comm, df, dd, a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], p, a.I("r"))
		},
		Detects: analyzer.PropWaitAtNxN,
	})
	mustRegister(&Spec{
		Name: "imbalance_at_mpi_allreduce", Paradigm: ParadigmMPI,
		Help: "work imbalance in front of MPI_Allreduce (extension)",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over ranks"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceAtMPIAllreduce(env.Comm, df, dd, a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], p, a.I("r"))
		},
		Detects: analyzer.PropWaitAtNxN,
	})
	mustRegister(&Spec{
		Name: "imbalance_at_mpi_allgather", Paradigm: ParadigmMPI,
		Help: "work imbalance in front of MPI_Allgather (extension)",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over ranks"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceAtMPIAllgather(env.Comm, df, dd, a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], p, a.I("r"))
		},
		Detects: analyzer.PropWaitAtNxN,
	})
	mustRegister(&Spec{
		Name: "late_broadcast", Paradigm: ParadigmMPI,
		Help: "MPI_Bcast root arrives late; all other ranks wait",
		Params: []Param{
			fparam("basework", DefaultBasework, "base work per iteration [s]"),
			fparam("rootextrawork", DefaultExtrawork, "extra work of the root [s]"),
			rankparam("root", 0, "root rank"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			LateBroadcast(env.Comm, a.F("basework"), a.F("rootextrawork"), a.I("root"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p-1) * a.F("rootextrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateBroadcast,
	})
	mustRegister(&Spec{
		Name: "late_scatter", Paradigm: ParadigmMPI,
		Help: "MPI_Scatter root arrives late; all other ranks wait",
		Params: []Param{
			fparam("basework", DefaultBasework, "base work per iteration [s]"),
			fparam("rootextrawork", DefaultExtrawork, "extra work of the root [s]"),
			rankparam("root", 0, "root rank"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			LateScatter(env.Comm, a.F("basework"), a.F("rootextrawork"), a.I("root"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p-1) * a.F("rootextrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateBroadcast,
	})
	mustRegister(&Spec{
		Name: "late_scatterv", Paradigm: ParadigmMPI,
		Help: "irregular MPI_Scatterv root arrives late",
		Params: []Param{
			fparam("basework", DefaultBasework, "base work per iteration [s]"),
			fparam("rootextrawork", DefaultExtrawork, "extra work of the root [s]"),
			rankparam("root", 0, "root rank"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			LateScatterv(env.Comm, a.F("basework"), a.F("rootextrawork"), a.I("root"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p-1) * a.F("rootextrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateBroadcast,
	})
	mustRegister(&Spec{
		Name: "early_reduce", Paradigm: ParadigmMPI,
		Help: "MPI_Reduce root arrives early and waits for all contributors",
		Params: []Param{
			fparam("rootwork", DefaultBasework, "work of the root per iteration [s]"),
			fparam("baseextrawork", DefaultExtrawork, "extra work of the non-root ranks [s]"),
			rankparam("root", 0, "root rank"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			EarlyReduce(env.Comm, a.F("rootwork"), a.F("baseextrawork"), a.I("root"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			// Only the root waits, once per repetition.
			return a.F("baseextrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropEarlyReduce,
	})
	mustRegister(&Spec{
		Name: "early_gather", Paradigm: ParadigmMPI,
		Help: "MPI_Gather root arrives early and waits for all contributors",
		Params: []Param{
			fparam("rootwork", DefaultBasework, "work of the root per iteration [s]"),
			fparam("baseextrawork", DefaultExtrawork, "extra work of the non-root ranks [s]"),
			rankparam("root", 0, "root rank"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			EarlyGather(env.Comm, a.F("rootwork"), a.F("baseextrawork"), a.I("root"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return a.F("baseextrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropEarlyReduce,
	})
	mustRegister(&Spec{
		Name: "early_gatherv", Paradigm: ParadigmMPI,
		Help: "irregular MPI_Gatherv root arrives early",
		Params: []Param{
			fparam("rootwork", DefaultBasework, "work of the root per iteration [s]"),
			fparam("baseextrawork", DefaultExtrawork, "extra work of the non-root ranks [s]"),
			rankparam("root", 0, "root rank"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			EarlyGatherv(env.Comm, a.F("rootwork"), a.F("baseextrawork"), a.I("root"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return a.F("baseextrawork") * float64(a.I("r"))
		},
		Detects: analyzer.PropEarlyReduce,
	})
	mustRegister(&Spec{
		Name: "unparallelized_mpi_code", Paradigm: ParadigmMPI,
		Help: "all work on rank 0; every other rank idles at the barrier",
		Params: []Param{
			fparam("serialwork", DefaultExtrawork, "serial work on rank 0 per iteration [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			UnparallelizedMPICode(env.Comm, a.F("serialwork"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			return float64(p-1) * a.F("serialwork") * float64(a.I("r"))
		},
		Detects: analyzer.PropWaitAtBarrier,
	})
	mustRegister(&Spec{
		Name: "growing_imbalance_at_mpi_barrier", Paradigm: ParadigmMPI,
		Help: "barrier imbalance whose severity grows with the iteration number",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "base work distribution over ranks"),
			iparam("r", DefaultReps, "repetitions (iteration i scales work by i+1)"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			GrowingImbalanceAtMPIBarrier(env.Comm, df, dd, a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			// Σ_{i=1..r} i × Imbalance = Imbalance × r(r+1)/2.
			r := a.I("r")
			base := imbalanceWait(a.Distr["distr"], p, 1)
			if base < 0 {
				return -1
			}
			return base * float64(r*(r+1)/2)
		},
		Detects: analyzer.PropWaitAtBarrier,
	})
	mustRegister(&Spec{
		Name: "dominated_by_communication", Paradigm: ParadigmMPI,
		Help: "fine-grained messaging dominates negligible computation (extension)",
		Params: []Param{
			fparam("msgwork", 1e-5, "computation between messages [s]"),
			iparam("r", 50, "repetitions"),
		},
		Run: func(env Env, a Args) {
			DominatedByCommunication(env.Comm, a.F("msgwork"), a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 { return -1 },
		Detects:      analyzer.PropMPITimeFraction,
	})
}

func registerOMPProps() {
	mustRegister(&Spec{
		Name: "imbalance_in_omp_pregion", Paradigm: ParadigmOMP,
		Help: "work imbalance inside a parallel region (wait at join)",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over threads"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceInOMPPRegion(env.Ctx, env.OMP, df, dd, a.I("r"))
		},
		ExpectedWait: func(_, t int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], t, a.I("r"))
		},
		Detects: analyzer.PropOMPRegion,
	})
	mustRegister(&Spec{
		Name: "imbalance_at_omp_barrier", Paradigm: ParadigmOMP,
		Help: "work imbalance in front of an explicit OpenMP barrier",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over threads"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceAtOMPBarrier(env.Ctx, env.OMP, df, dd, a.I("r"))
		},
		ExpectedWait: func(_, t int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], t, a.I("r"))
		},
		Detects: analyzer.PropOMPBarrier,
	})
	mustRegister(&Spec{
		Name: "imbalance_in_omp_loop", Paradigm: ParadigmOMP,
		Help: "work imbalance across the iterations of a worksharing loop",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over threads"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceInOMPLoop(env.Ctx, env.OMP, df, dd, a.I("r"))
		},
		ExpectedWait: func(_, t int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], t, a.I("r"))
		},
		Detects: analyzer.PropOMPLoop,
	})
	mustRegister(&Spec{
		Name: "serialization_at_omp_critical", Paradigm: ParadigmOMP,
		Help: "threads serialize at a critical section (extension)",
		Params: []Param{
			fparam("secwork", DefaultBasework, "time inside the critical section [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			SerializationAtOMPCritical(env.Ctx, env.OMP, a.F("secwork"), a.I("r"))
		},
		ExpectedWait: func(_, t int, a Args) float64 {
			// Barrier-resynced rounds of simultaneous arrivals: each
			// round serializes for 0+1+…+(t-1) section times.
			return a.F("secwork") * float64(t*(t-1)/2) * float64(a.I("r"))
		},
		Detects: analyzer.PropOMPCritical,
		// The critical-section rounds are barrier-resynced, so the
		// serialized exits also skew the resync barrier.
		Companions: []string{analyzer.PropOMPBarrier},
	})
	mustRegister(&Spec{
		Name: "unparallelized_in_single", Paradigm: ParadigmOMP,
		Help: "all work in a single construct; the team idles (extension)",
		Params: []Param{
			fparam("singlework", DefaultExtrawork, "work inside the single [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			UnparallelizedInSingle(env.Ctx, env.OMP, a.F("singlework"), a.I("r"))
		},
		ExpectedWait: func(_, t int, a Args) float64 {
			return a.F("singlework") * float64(t-1) * float64(a.I("r"))
		},
		Detects: analyzer.PropOMPSingle,
	})
	mustRegister(&Spec{
		Name: "imbalance_at_omp_sections", Paradigm: ParadigmOMP,
		Help: "sections of unequal duration distributed over the team (extension)",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "duration distribution over sections"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			ImbalanceAtOMPSections(env.Ctx, env.OMP, df, dd, a.I("r"))
		},
		ExpectedWait: func(_, t int, a Args) float64 {
			return imbalanceWait(a.Distr["distr"], t, a.I("r"))
		},
		Detects: analyzer.PropOMPSections,
	})
}

func registerHybridProps() {
	mustRegister(&Spec{
		Name: "hybrid_omp_imbalance_causes_late_sender", Paradigm: ParadigmHybrid,
		Help: "thread imbalance on the sending ranks delays MPI sends",
		Params: []Param{
			fparam("basework", DefaultBasework, "per-thread base work [s]"),
			fparam("ompextra", DefaultExtrawork, "extra work of one sender thread [s]"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			HybridOMPImbalanceCausesLateSender(env.Comm, env.OMP,
				a.F("basework"), a.F("ompextra"), a.I("r"))
		},
		ExpectedWait: func(p, t int, a Args) float64 {
			// The sender's team joins ompextra late each iteration (one
			// thread is overloaded by ompextra; fork/join overheads are
			// identical on both sides), so the MPI-level late-sender wait
			// is pairs × ompextra × reps — same shape as plain late_sender.
			return float64(p/2) * a.F("ompextra") * float64(a.I("r"))
		},
		Detects: analyzer.PropLateSender,
		// The sending ranks' teams are internally imbalanced by
		// construction; the join wait inside the OMP region is the
		// *cause* of the MPI-level late sender, not a spurious finding.
		Companions: []string{analyzer.PropOMPRegion},
	})
	mustRegister(&Spec{
		Name: "hybrid_barrier_after_omp_regions", Paradigm: ParadigmHybrid,
		Help: "process imbalance built from per-rank OpenMP regions",
		Params: []Param{
			dparam("distr", defaultImbalanceDistr, "work distribution over ranks"),
			iparam("r", DefaultReps, "repetitions"),
		},
		Run: func(env Env, a Args) {
			df, dd := a.D("distr")
			HybridBarrierAfterOMPRegions(env.Comm, env.OMP, df, dd, a.I("r"))
		},
		ExpectedWait: func(p, _ int, a Args) float64 {
			// Each rank's team is internally balanced (every thread works
			// df(rank)), so the whole thread-level imbalance surfaces as
			// rank-level wait at the closing MPI barrier: the plain
			// imbalance closed form over ranks.
			return imbalanceWait(a.Distr["distr"], p, a.I("r"))
		},
		Detects: analyzer.PropWaitAtBarrier,
	})
}
