// Package profile defines the canonical, versioned performance profile of
// one test-suite run — the persistent record the paper's methodology is
// missing when analysis results are printed and forgotten.
//
// A Profile is extracted from an analyzer.Report plus the trace.Trace it
// was computed from.  It captures, per detected property, the accumulated
// waiting time, the severity, the call-path breakdown, and the
// per-location wait distribution, together with run metadata (experiment
// name, config hash, ranks × threads, clock mode).  The encoding is
// deliberately canonical: every collection is a sorted slice rather than
// a map and every float is rounded to a fixed quantum, so that two
// identical runs marshal to byte-identical JSON and hash to the same
// content address.  That stable identity is what the regression store
// (package regress) is built on, in the spirit of Perun's version-indexed
// performance profiles.
//
// Profiles come from FromRun (materialized trace) or FromAnalysis
// (streamed runs, where no trace ever exists); both produce byte-identical
// output for the same run.  doc/FORMATS.md specifies the schema-1 JSON
// encoding and the hashing rules normatively.
package profile

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/trace"
)

// SchemaVersion identifies the profile wire format.  Decoding rejects
// other versions; bump it on any breaking change to the structs below.
const SchemaVersion = 1

// quantum is the canonical rounding applied to every float in a profile
// (one nanosecond for times; the same grid is fine for severities and
// rates).  Rounding removes the last-bit noise that different
// float-accumulation orders could otherwise leave in equal-valued runs,
// which would break content-addressed identity.
const quantum = 1e-9

// quantize rounds v to the canonical grid.  Non-finite input is poisoned
// to NaN (±Inf included): there is exactly one non-finite representative,
// and FromAnalysis rejects it before a profile is ever emitted.
func quantize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.NaN()
	}
	q := math.Round(v/quantum) * quantum
	if q == 0 {
		return 0 // normalize -0
	}
	return q
}

// RunInfo is the configuration metadata recorded with a profile.  It is
// the identity of the *setup*; two profiles are only comparable when
// their RunInfo hashes match.
type RunInfo struct {
	// Clock is the vtime mode the run used ("virtual" or "real").
	Clock string `json:"clock"`
	// Procs and Threads are the MPI rank and OpenMP thread counts.
	Procs   int `json:"procs"`
	Threads int `json:"threads"`
	// Params holds free-form experiment parameters (severity scales,
	// repetition counts, …) that distinguish otherwise-identical runs.
	Params map[string]string `json:"params,omitempty"`
}

// PathWait is one call path's share of a property's waiting time.
type PathWait struct {
	Path string  `json:"path"`
	Wait float64 `json:"wait_s"`
}

// LocationWait is one location's share of a property's waiting time.
type LocationWait struct {
	Rank   int32   `json:"rank"`
	Thread int32   `json:"thread"`
	Wait   float64 `json:"wait_s"`
}

// Key renders the location as the analyzer's "rank.thread" form.
func (l LocationWait) Key() string { return fmt.Sprintf("%d.%d", l.Rank, l.Thread) }

// Property is the persisted form of one analyzer result.
type Property struct {
	Name string `json:"name"`
	// Wait is the accumulated waiting time in seconds (for info metrics:
	// the accumulated cost).
	Wait float64 `json:"wait_s"`
	// Severity is Wait normalized by the run's total resource time.
	Severity  float64 `json:"severity"`
	Instances int     `json:"instances"`
	// Significant records whether the property cleared the analyzer's
	// threshold — the bit whose flips are positive/negative correctness
	// changes under regression diffing.
	Significant bool `json:"significant"`
	// Info marks cost metrics (init/finalize overhead, MPI time
	// fraction) that are never "findings".
	Info bool `json:"info,omitempty"`
	// Paths is the call-path breakdown, sorted by wait (desc), then path.
	Paths []PathWait `json:"paths,omitempty"`
	// Locations is the per-location wait distribution in rank-major
	// order — the wait vector regression diffing compares for outliers.
	Locations []LocationWait `json:"locations,omitempty"`
}

// LocationMap returns the wait distribution keyed by "rank.thread".
func (p *Property) LocationMap() map[string]float64 {
	m := make(map[string]float64, len(p.Locations))
	for _, l := range p.Locations {
		m[l.Key()] = l.Wait
	}
	return m
}

// Profile is the canonical record of one analyzed run.
type Profile struct {
	Schema     int     `json:"schema"`
	Experiment string  `json:"experiment"`
	Run        RunInfo `json:"run"`
	// ConfigHash is the short content hash of (Experiment, Run,
	// Threshold): the comparability key of the profile.
	ConfigHash string  `json:"config_hash"`
	Duration   float64 `json:"duration_s"`
	TotalTime  float64 `json:"total_time_s"`
	Threshold  float64 `json:"threshold"`
	Events     int     `json:"events"`
	// Messages carries the analyzer's p2p traffic summary.
	Messages analyzer.MessageStats `json:"messages"`
	// Properties holds every detected property, sorted by name.
	Properties []Property `json:"properties"`
}

// TraceInfo carries the trace-shape metadata a profile records: the
// location grid and the event count.  FromRun derives it from a
// materialized trace; streaming runs derive it from the drained
// trace.Stream (TraceInfoOfStream), where no trace ever exists.
type TraceInfo struct {
	Ranks, Threads int
	Events         int
}

// TraceInfoOf extracts the shape metadata of a materialized trace.
func TraceInfoOf(tr *trace.Trace) TraceInfo {
	ranks, threads := tr.Shape()
	return TraceInfo{Ranks: ranks, Threads: threads, Events: len(tr.Events)}
}

// TraceInfoOfStream extracts the shape metadata of a drained stream; the
// result equals TraceInfoOf on the materialized trace of the same run.
func TraceInfoOfStream(st *trace.Stream) TraceInfo {
	ranks, threads := st.Shape()
	return TraceInfo{Ranks: ranks, Threads: threads, Events: st.Events()}
}

// AnalyzeSpool merges the chunk spool behind cr into one stream, drains
// it through analyzer.AnalyzeStream, and returns the report with the
// stream's shape metadata: the whole streamed analysis, never
// materializing the event list.  The stream, and with it cr, is closed
// on every path.
func AnalyzeSpool(cr *trace.ChunkReader, opt analyzer.Options) (*analyzer.Report, TraceInfo, error) {
	st, err := trace.NewStream(cr)
	if err != nil {
		return nil, TraceInfo{}, err
	}
	defer st.Close()
	rep, err := analyzer.AnalyzeStream(st, opt)
	if err != nil {
		return nil, TraceInfo{}, err
	}
	return rep, TraceInfoOfStream(st), nil
}

// SpoolRun runs run with its events spooled into an ATSC chunk file at
// path — a temporary file, removed on return, when path is empty — and
// analyzes the spool with AnalyzeSpool.  A failed run leaves no spool at
// path.
func SpoolRun(path string, opt analyzer.Options, run func(*trace.ChunkWriter) error) (*analyzer.Report, TraceInfo, error) {
	if path == "" {
		f, err := os.CreateTemp("", "ats-spool-*.atsc")
		if err != nil {
			return nil, TraceInfo{}, err
		}
		path = f.Name()
		f.Close()
		defer os.Remove(path)
	}
	if err := trace.WriteSpool(path, run); err != nil {
		return nil, TraceInfo{}, err
	}
	r, err := trace.OpenChunkFile(path)
	if err != nil {
		return nil, TraceInfo{}, err
	}
	return AnalyzeSpool(r, opt)
}

// FromRun extracts the canonical profile of one analyzed run.  Zero
// fields of run are filled from the trace (Procs/Threads from the
// location grid, Clock defaulting to "virtual").  A report carrying
// non-finite values (NaN/Inf waits or severities) is rejected: such a
// profile would hash, store, and then gate as "clean" in every
// NaN-blind tolerance comparison downstream.
func FromRun(experiment string, tr *trace.Trace, rep *analyzer.Report, run RunInfo) (*Profile, error) {
	return FromAnalysis(experiment, TraceInfoOf(tr), rep, run)
}

// FromAnalysis extracts the canonical profile from a report plus explicit
// trace-shape metadata — the entry point for streamed runs, whose events
// were never materialized.  A streamed and a materialized analysis of the
// same run produce byte-identical profiles (and so the same content hash).
// Like FromRun it rejects reports with non-finite values.
func FromAnalysis(experiment string, info TraceInfo, rep *analyzer.Report, run RunInfo) (*Profile, error) {
	if run.Procs == 0 {
		run.Procs = info.Ranks
	}
	if run.Threads == 0 {
		run.Threads = info.Threads
	}
	if run.Clock == "" {
		run.Clock = "virtual"
	}
	p := &Profile{
		Schema:     SchemaVersion,
		Experiment: experiment,
		Run:        run,
		Duration:   quantize(rep.Duration),
		TotalTime:  quantize(rep.TotalTime),
		Threshold:  quantize(rep.Threshold),
		Events:     info.Events,
		Messages:   rep.Messages,
	}
	p.Messages.AvgBytes = quantize(p.Messages.AvgBytes)
	p.Messages.Rate = quantize(p.Messages.Rate)
	p.ConfigHash = p.configHash()

	names := rep.Properties()
	if len(names) > 0 {
		p.Properties = make([]Property, 0, len(names))
	}
	for _, name := range names {
		r := rep.Results[name]
		prop := Property{
			Name:        name,
			Wait:        quantize(r.Wait),
			Severity:    quantize(r.Severity),
			Instances:   r.Instances,
			Info:        analyzer.IsInfo(name),
			Significant: !analyzer.IsInfo(name) && r.Severity >= rep.Threshold,
		}
		if len(r.ByPath) > 0 {
			prop.Paths = make([]PathWait, 0, len(r.ByPath))
			for path, w := range r.ByPath {
				prop.Paths = append(prop.Paths, PathWait{Path: path, Wait: quantize(w)})
			}
			slices.SortFunc(prop.Paths, func(a, b PathWait) int {
				if c := cmp.Compare(b.Wait, a.Wait); c != 0 {
					return c
				}
				return strings.Compare(a.Path, b.Path)
			})
		}
		if len(r.ByLocation) > 0 {
			prop.Locations = make([]LocationWait, 0, len(r.ByLocation))
			for loc, w := range r.ByLocation {
				prop.Locations = append(prop.Locations, LocationWait{
					Rank: loc.Rank, Thread: loc.Thread, Wait: quantize(w),
				})
			}
			slices.SortFunc(prop.Locations, func(a, b LocationWait) int {
				if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
					return c
				}
				return cmp.Compare(a.Thread, b.Thread)
			})
		}
		p.Properties = append(p.Properties, prop)
	}
	if bad := p.firstNonFinite(); bad != "" {
		return nil, fmt.Errorf("profile: %s: non-finite %s", experiment, bad)
	}
	return p, nil
}

// firstNonFinite names the first non-finite float recorded anywhere in
// the profile ("" when all values are finite).  quantize has already
// collapsed every non-finite input to NaN, so NaN checks suffice.
func (p *Profile) firstNonFinite() string {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	switch {
	case bad(p.Duration):
		return "duration"
	case bad(p.TotalTime):
		return "total time"
	case bad(p.Threshold):
		return "threshold"
	case bad(p.Messages.AvgBytes):
		return "message avg bytes"
	case bad(p.Messages.Rate):
		return "message rate"
	}
	for i := range p.Properties {
		prop := &p.Properties[i]
		if bad(prop.Wait) {
			return fmt.Sprintf("wait for %s", prop.Name)
		}
		if bad(prop.Severity) {
			return fmt.Sprintf("severity for %s", prop.Name)
		}
		for _, pw := range prop.Paths {
			if bad(pw.Wait) {
				return fmt.Sprintf("path wait for %s at %s", prop.Name, pw.Path)
			}
		}
		for _, lw := range prop.Locations {
			if bad(lw.Wait) {
				return fmt.Sprintf("location wait for %s at %s", prop.Name, lw.Key())
			}
		}
	}
	return ""
}

// Get returns the named property, or nil.
func (p *Profile) Get(name string) *Property {
	for i := range p.Properties {
		if p.Properties[i].Name == name {
			return &p.Properties[i]
		}
	}
	return nil
}

// PropertyNames returns the names of all recorded properties, in order.
func (p *Profile) PropertyNames() []string {
	names := make([]string, len(p.Properties))
	for i := range p.Properties {
		names[i] = p.Properties[i].Name
	}
	return names
}

// Significant returns the recorded significant (non-info) properties.
func (p *Profile) Significant() []Property {
	var out []Property
	for _, prop := range p.Properties {
		if prop.Significant {
			out = append(out, prop)
		}
	}
	return out
}

// Marshal renders the canonical JSON encoding (indented, trailing
// newline) that both file storage and hashing are defined over: the
// bytes of json.MarshalIndent(p, "", "  ") plus "\n", appended by hand
// (see encoder).
func (p *Profile) Marshal() ([]byte, error) {
	bp, err := p.encode()
	if err != nil {
		return nil, err
	}
	defer putBuf(bp)
	return bytes.Clone(*bp), nil
}

// Hash returns the content address of the profile: the hex sha256 of its
// canonical encoding.  Identical runs hash identically; any change in a
// recorded severity, path, or distribution changes the hash.
func (p *Profile) Hash() (string, error) {
	bp, err := p.encode()
	if err != nil {
		return "", err
	}
	defer putBuf(bp)
	sum := sha256.Sum256(*bp)
	return hex.EncodeToString(sum[:]), nil
}

// MarshalHash returns the canonical encoding and its content address
// (Hash) from a single encoding pass.
func (p *Profile) MarshalHash() ([]byte, string, error) {
	blob, err := p.Marshal()
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(blob)
	return blob, hex.EncodeToString(sum[:]), nil
}

// Encode writes the canonical encoding to w.
func (p *Profile) Encode(w io.Writer) error {
	blob, err := p.Marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// WriteFile writes the canonical encoding to path.  The write is atomic
// (temp file + rename in the same directory): readers never observe a
// partial profile.
func (p *Profile) WriteFile(path string) error {
	blob, err := p.Marshal()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Decode reads one profile and validates its schema version.
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if p.Schema != SchemaVersion {
		return nil, fmt.Errorf("profile: schema version %d (want %d)", p.Schema, SchemaVersion)
	}
	if p.Experiment == "" {
		return nil, fmt.Errorf("profile: missing experiment name")
	}
	// JSON cannot encode NaN/Inf, but Go's encoder is not the only writer
	// of profile files: reject hand-crafted non-finite values here so a
	// poisoned profile can never enter the store or pass gating.
	if bad := p.firstNonFinite(); bad != "" {
		return nil, fmt.Errorf("profile: %s: non-finite %s", p.Experiment, bad)
	}
	return &p, nil
}

// ReadFile loads a profile from path.
func ReadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
