package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Spans are recorded from the benchmark's own code, around each call into
// a pipeline layer.  Every goroutine that does measured work (a campaign
// worker, an HTTP client, the scale pipeline) owns one lane, so recording
// takes no lock.  Spans on a lane nest: a span's self time is its duration
// minus that of its direct children.

// span is one timed call.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index of the enclosing span on the lane, -1 at top level
	req        int64         // job or request the span belongs to
}

// lane is the span log of one goroutine.  A nil lane records nothing, so
// untraced rounds run the same code.
type lane struct {
	name  string
	epoch time.Time
	spans []span
	open  []int32
}

func (l *lane) begin(name string, req int64) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.epoch), parent: parent, req: req})
	l.open = append(l.open, int32(len(l.spans)-1))
}

func (l *lane) end() {
	if l == nil {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[i].end = time.Since(l.epoch)
}

// tracer owns the lanes of a traced run.  A nil tracer hands out nil
// lanes.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	lanes  []*lane
	groups map[string][]*lane
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), groups: make(map[string][]*lane)}
}

// group returns n lanes named prefix-0 … prefix-(n-1): the same lanes on
// every call, so traced rounds append to one log per worker or client.
func (t *tracer) group(prefix string, n int) []*lane {
	if t == nil {
		return make([]*lane, n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.groups[prefix]
	for len(g) < n {
		l := &lane{name: fmt.Sprintf("%s-%d", prefix, len(g)), epoch: t.epoch}
		g = append(g, l)
		t.lanes = append(t.lanes, l)
	}
	t.groups[prefix] = g
	return g[:n]
}

// lanePool hands each concurrently running campaign job a lane of its
// own.  A nil pool (untraced round) hands out nil lanes without touching
// a channel.
type lanePool chan *lane

func (t *tracer) pool(prefix string, n int) lanePool {
	if t == nil {
		return nil
	}
	p := make(lanePool, n)
	for _, l := range t.group(prefix, n) {
		p <- l
	}
	return p
}

func (p lanePool) get() *lane {
	if p == nil {
		return nil
	}
	return <-p
}

func (p lanePool) put(l *lane) {
	if p != nil {
		p <- l
	}
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	self, total time.Duration
	n           int
}

// layers sums self and total time per span name over every lane.  Call
// it only once the traced rounds have returned.
func (t *tracer) layers() map[string]layerTime {
	out := make(map[string]layerTime)
	if t == nil {
		return out
	}
	for _, l := range t.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			a := out[s.name]
			a.total += s.end - s.start
			a.self += s.end - s.start - child[i]
			a.n++
			out[s.name] = a
		}
	}
	return out
}

// hostInfo describes the machine a traced run measured on.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// spanFile is the JSON form of a traced run's spans.
type spanFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Host     hostInfo   `json:"host"`
	Lanes    []laneJSON `json:"lanes"`
}

type laneJSON struct {
	Name     string     `json:"name"`
	Location int        `json:"location"`
	Spans    []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Req     int64  `json:"req"`
}

// write stores the spans as JSON at path and as an ATS1 trace at
// path+".ats": location = lane (rank = lane index), region = span name,
// so atstrace and atsanalyze read the benchmark's own timeline.
func (t *tracer) write(path, workload string, seed uint64) error {
	doc := spanFile{Workload: workload, Seed: seed, Host: currentHost()}
	bufs := make([]*trace.Buffer, len(t.lanes))
	for i, l := range t.lanes {
		lj := laneJSON{Name: l.name, Location: i, Spans: make([]spanJSON, len(l.spans))}
		b := trace.NewBuffer(trace.Location{Rank: int32(i)})
		var stack []int32
		for j, s := range l.spans {
			lj.Spans[j] = spanJSON{Name: s.name, StartNS: int64(s.start), EndNS: int64(s.end), Parent: s.parent, Req: s.req}
			for len(stack) > 0 && stack[len(stack)-1] != s.parent {
				b.Exit(l.spans[stack[len(stack)-1]].end.Seconds())
				stack = stack[:len(stack)-1]
			}
			b.Enter(s.name, s.start.Seconds())
			stack = append(stack, int32(j))
		}
		for len(stack) > 0 {
			b.Exit(l.spans[stack[len(stack)-1]].end.Seconds())
			stack = stack[:len(stack)-1]
		}
		doc.Lanes = append(doc.Lanes, lj)
		bufs[i] = b
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return trace.Merge(bufs...).WriteFile(path + ".ats")
}
