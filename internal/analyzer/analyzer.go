// Package analyzer implements the automatic performance analysis tool of
// the reproduction — the consumer the APART Test Suite is validated
// against, playing the role EXPERT plays in the paper (Fig 3.5).
//
// The analyzer searches an event trace for the APART performance
// properties (compound events describing wait states) and quantifies each
// with a severity: the accumulated waiting time divided by the total
// resource consumption of the run (sum of all locations' time spans), the
// ASL convention.  Results are localized along the two remaining EXPERT
// dimensions: the dynamic call path and the process/thread location.
package analyzer

import (
	"sort"

	"repro/internal/trace"
)

// Property identifiers reported by the analyzer.  These follow the
// EXPERT/ASL catalog names rather than the ATS function names: several ATS
// functions map onto one analysis property (e.g. late_scatter manifests as
// the Late Broadcast 1-to-N pattern).
const (
	PropLateSender      = "late_sender"
	PropLateReceiver    = "late_receiver"
	PropWaitAtBarrier   = "wait_at_mpi_barrier"
	PropLateBroadcast   = "late_broadcast" // 1-to-N rooted collectives
	PropEarlyReduce     = "early_reduce"   // N-to-1 rooted collectives
	PropWaitAtNxN       = "wait_at_nxn"    // N-to-N collectives
	PropOMPRegion       = "imbalance_in_omp_region"
	PropOMPBarrier      = "imbalance_at_omp_barrier"
	PropOMPLoop         = "imbalance_in_omp_loop"
	PropOMPSections     = "imbalance_at_omp_sections"
	PropOMPSingle       = "idle_threads_at_omp_single"
	PropOMPCritical     = "serialization_at_omp_critical"
	PropInitFinalize    = "mpi_init_finalize_overhead"
	PropMPITimeFraction = "mpi_time_fraction"
	PropTotalWaiting    = "total_waiting"

	// PropRankOutlier is the finding kind of the similarity miner
	// (package similarity): a rank whose normalized wait vector clusters
	// away from the majority behavior of its run.  It is derived from a
	// profile rather than measured from a trace, so the analyzer itself
	// never reports it; the constant names the finding wherever it
	// surfaces (server reports, CLI output).
	PropRankOutlier = "rank_behavior_outlier"
)

// Hierarchy maps each property to its parent in the EXPERT-style property
// tree; PropTotalWaiting is the root.
var Hierarchy = map[string]string{
	PropLateSender:        "mpi_p2p",
	PropLateReceiver:      "mpi_p2p",
	PropLateBroadcast:     "mpi_collective",
	PropEarlyReduce:       "mpi_collective",
	PropWaitAtNxN:         "mpi_collective",
	PropWaitAtBarrier:     "mpi_synchronization",
	"mpi_p2p":             "mpi",
	"mpi_collective":      "mpi",
	"mpi_synchronization": "mpi",
	"mpi":                 PropTotalWaiting,
	PropOMPRegion:         "omp",
	PropOMPBarrier:        "omp",
	PropOMPLoop:           "omp",
	PropOMPSections:       "omp",
	PropOMPSingle:         "omp",
	PropOMPCritical:       "omp",
	"omp":                 PropTotalWaiting,
}

// Result aggregates one property's findings.
type Result struct {
	Property string
	// Wait is the accumulated waiting time in seconds.
	Wait float64
	// Severity is Wait normalized by the run's total resource time.
	Severity float64
	// Instances counts the compound events contributing to Wait.
	Instances int
	// ByPath accumulates Wait per call path (rendered string).
	ByPath map[string]float64
	// ByLocation accumulates Wait per location.
	ByLocation map[trace.Location]float64
}

func newResult(prop string) *Result {
	return &Result{
		Property:   prop,
		ByPath:     make(map[string]float64),
		ByLocation: make(map[trace.Location]float64),
	}
}

// TopPath returns the call path with the largest accumulated wait.
func (r *Result) TopPath() string {
	best, bestW := "", -1.0
	for p, w := range r.ByPath {
		if w > bestW || (w == bestW && p < best) {
			best, bestW = p, w
		}
	}
	return best
}

// Options tunes the analysis.
type Options struct {
	// Threshold is the minimum severity for a finding to be considered
	// significant (default 0.005, i.e. 0.5% of total resource time —
	// automatic tools have "different thresholds/sensitivities", which
	// is exactly why the suite's severities are parameterizable).
	Threshold float64
}

// MessageStats summarizes point-to-point traffic — the raw material for
// diagnosing latency-bound (many tiny messages) versus bandwidth-bound
// (few huge messages) communication, as the Grindstone-style programs
// require.
type MessageStats struct {
	// Count is the number of point-to-point messages sent.
	Count int `json:"count"`
	// Bytes is their total payload volume.
	Bytes int64 `json:"bytes"`
	// AvgBytes is Bytes/Count (0 without messages).
	AvgBytes float64 `json:"avg_bytes"`
	// Rate is messages per second of trace span.
	Rate float64 `json:"rate"`
}

// Report is the complete analysis result.
type Report struct {
	// TotalTime is the aggregate resource time severity is normalized by.
	TotalTime float64
	// Duration is the wall span of the trace.
	Duration float64
	// Results holds one entry per detected leaf property.
	Results map[string]*Result
	// Stats is the flat region profile of the trace.
	Stats *trace.Stats
	// Messages summarizes point-to-point traffic.
	Messages MessageStats
	// Threshold is the significance threshold used.
	Threshold float64
}

// IsInfo reports whether prop is an info metric: a cost measure (MPI
// init/finalize overhead, MPI time fraction) rather than a wait state.
// Info metrics are reported separately and never count as findings.
func IsInfo(prop string) bool {
	return prop == PropInitFinalize || prop == PropMPITimeFraction
}

// Get returns the result for a property (nil if nothing was detected).
func (rep *Report) Get(prop string) *Result { return rep.Results[prop] }

// Properties returns the names of all detected properties (including info
// metrics) in sorted order — the stable iteration order external tooling
// (profile extraction, regression diffing) relies on.
func (rep *Report) Properties() []string {
	names := make([]string, 0, len(rep.Results))
	for name := range rep.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Wait returns the accumulated waiting time for a property (0 if none).
func (rep *Report) Wait(prop string) float64 {
	if r := rep.Results[prop]; r != nil {
		return r.Wait
	}
	return 0
}

// Severity returns a property's severity (0 if not detected).
func (rep *Report) Severity(prop string) float64 {
	if r := rep.Results[prop]; r != nil {
		return r.Severity
	}
	return 0
}

// Significant returns the leaf properties at or above the threshold,
// ranked by severity (highest first).  Info-metrics (init/finalize
// overhead, MPI time fraction) are excluded: they are reported separately
// because they measure cost rather than waiting.
func (rep *Report) Significant() []*Result {
	var out []*Result
	for _, r := range rep.Results {
		if IsInfo(r.Property) {
			continue
		}
		if r.Severity >= rep.Threshold {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].Property < out[j].Property
	})
	return out
}

// Top returns the most severe significant property result, or nil.
func (rep *Report) Top() *Result {
	sig := rep.Significant()
	if len(sig) == 0 {
		return nil
	}
	return sig[0]
}

// Analyze runs the full pattern search over a materialized trace.
//
// The search is a single sweep over the event slab: one pass feeds the
// flat profile, the p2p matcher, the collective grouper, the lock detector
// and the message statistics.  The sweep is implemented by StreamAnalyzer
// (see stream.go), which AnalyzeStream drives from an on-disk chunk stream
// instead of a slab; both entry points perform the identical event-order
// arithmetic, so their reports — and the content-addressed profile hashes
// derived from them — are byte-identical.
func Analyze(tr *trace.Trace, opt Options) *Report {
	a := NewStreamAnalyzer(tr, opt)
	for i := range tr.Events {
		a.Add(&tr.Events[i])
	}
	return a.Finish()
}

// collKey identifies one collective instance: the operation and its match
// id.
type collKey struct {
	coll  trace.CollKind
	match uint64
}

// detectCostMetrics derives the region-profile metrics: MPI init/finalize
// overhead (the property the paper observes dominating tiny test programs
// in Fig 3.2) and the overall MPI time fraction.
func detectCostMetrics(stats *trace.Stats, rep *Report) {
	initFin := stats.RegionInclusive("MPI_Init") + stats.RegionInclusive("MPI_Finalize")
	if initFin > 0 {
		r := newResult(PropInitFinalize)
		r.Wait = initFin
		r.Instances = stats.RegionCount("MPI_Init") + stats.RegionCount("MPI_Finalize")
		r.ByPath["MPI_Init+MPI_Finalize"] = initFin
		rep.Results[PropInitFinalize] = r
	}
	var mpiTime float64
	var mpiCount int
	for _, region := range stats.RegionNames() {
		if len(region) > 4 && region[:4] == "MPI_" {
			mpiTime += stats.RegionInclusive(region)
			mpiCount += stats.RegionCount(region)
		}
	}
	if mpiTime > 0 {
		r := newResult(PropMPITimeFraction)
		r.Wait = mpiTime
		r.Instances = mpiCount
		r.ByPath["all MPI regions"] = mpiTime
		rep.Results[PropMPITimeFraction] = r
	}
}
