// Package mpi implements the message-passing substrate of the ATS
// reproduction: an in-process, MPI-like runtime in which each rank is a
// goroutine with its own logical (or wall) clock.
//
// The package provides what the ATS framework layers need (paper §3.1.3,
// §3.1.4): datatypes, buffer management including irregular (v-variant)
// buffers driven by distribution functions, blocking and non-blocking
// point-to-point communication with eager and rendezvous protocols, the
// full set of collective operations used by the property functions, the
// even/odd send-receive and cyclic-shift communication patterns, and
// communicator management (dup/split) for composite test programs that run
// different property sets in different communicators (paper §3.3).
//
// Two properties matter for fidelity:
//
//  1. Blocking semantics match MPI: a receive blocks until a matching send
//     was posted; a synchronous/rendezvous send blocks until the receive is
//     posted; collectives block according to their data dependencies (a
//     broadcast receiver waits for the root; a reduce root waits for all).
//     These are exactly the mechanics that create the APART wait-state
//     properties (late sender, late receiver, late broadcast, early
//     reduce, wait-at-barrier, N×N imbalance).
//
//  2. In Virtual clock mode all timestamps are computed algebraically from
//     the participants' clocks and the cost model, so the waiting times in
//     the trace equal the configured pathology severities exactly and runs
//     are deterministic.
//
// Every traced run spools its per-rank buffers as they record (see
// trace.Recorder and doc/ARCHITECTURE.md).  By default the spool is in
// memory and Run returns it merged as a Trace; setting Options.Sink
// spools into the caller's writer instead, e.g. an on-disk spool for
// bounded-memory analysis at large rank counts.
package mpi
