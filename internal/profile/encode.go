package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/jsonenc"
)

// The canonical encoding is defined as json.MarshalIndent(p, "", "  ")
// plus a trailing newline, and the config hash over json.Marshal of
// (experiment, run, threshold).  encoder appends both by hand, byte for
// byte as encoding/json writes them: struct fields in declaration order
// under their tags with the omitempty rules, nil slices as null, map keys
// sorted, and encoding/json's float format, string escaping and error on
// NaN and infinities (package jsonenc).  Profiles are encoded and hashed
// once per analyzed run, and reflection dominated that.  The oracle tests
// (TestCanonicalEncodingMatchesJSON, FuzzProfileEncoding) hold it to
// encoding/json; a field added to any encoded struct must be added here.
type encoder struct {
	buf     []byte
	depth   int
	compact bool // json.Marshal layout: no newlines, no space after ':'
	err     error
}

// encBufs recycles the buffers Hash and configHash encode into.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf bounds the buffers encBufs keeps: a profile of a
// many-thousand-location run encodes to megabytes, and the pool would
// hold that until the next GC.
const maxPooledBuf = 64 << 10

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		encBufs.Put(bp)
	}
}

// encode appends the canonical encoding into a pooled buffer, which the
// caller hands back with putBuf.
func (p *Profile) encode() (*[]byte, error) {
	bp := encBufs.Get().(*[]byte)
	e := encoder{buf: (*bp)[:0]}
	e.profile(p)
	*bp = append(e.buf, '\n')
	if e.err != nil {
		putBuf(bp)
		return nil, fmt.Errorf("profile: marshal: %w", e.err)
	}
	return bp, nil
}

// configHash computes the short comparability hash, or "" when the
// threshold is not finite (FromAnalysis then rejects the profile).
func (p *Profile) configHash() string {
	bp := encBufs.Get().(*[]byte)
	defer putBuf(bp)
	e := encoder{buf: (*bp)[:0], compact: true}
	e.open('{')
	e.key(true, "experiment")
	e.str(p.Experiment)
	e.key(false, "run")
	e.run(&p.Run)
	e.key(false, "threshold")
	e.float(p.Threshold)
	e.close('}')
	*bp = e.buf
	if e.err != nil {
		return ""
	}
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:])[:12]
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) str(s string) { e.buf = jsonenc.AppendString(e.buf, s) }

func (e *encoder) int(n int64) { e.buf = strconv.AppendInt(e.buf, n, 10) }

func (e *encoder) bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

func (e *encoder) float(f float64) {
	var err error
	if e.buf, err = jsonenc.AppendFloat(e.buf, f); err != nil && e.err == nil {
		e.err = err
	}
}

// newline starts an indented line at the current depth.
func (e *encoder) newline() {
	if e.compact {
		return
	}
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, "  "...)
	}
}

// open and close bracket a non-empty object or array (json.Indent keeps
// an empty one as {} or [] on its line).
func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
}

func (e *encoder) close(c byte) {
	e.depth--
	e.newline()
	e.buf = append(e.buf, c)
}

// elem starts the next member of an open object or array.
func (e *encoder) elem(first bool) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.newline()
}

// key starts an object member named by a field tag (plain ASCII).
func (e *encoder) key(first bool, name string) {
	e.elem(first)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
	if !e.compact {
		e.buf = append(e.buf, ' ')
	}
}

func (e *encoder) profile(p *Profile) {
	e.open('{')
	e.key(true, "schema")
	e.int(int64(p.Schema))
	e.key(false, "experiment")
	e.str(p.Experiment)
	e.key(false, "run")
	e.run(&p.Run)
	e.key(false, "config_hash")
	e.str(p.ConfigHash)
	e.key(false, "duration_s")
	e.float(p.Duration)
	e.key(false, "total_time_s")
	e.float(p.TotalTime)
	e.key(false, "threshold")
	e.float(p.Threshold)
	e.key(false, "events")
	e.int(int64(p.Events))
	e.key(false, "messages")
	e.open('{')
	e.key(true, "count")
	e.int(int64(p.Messages.Count))
	e.key(false, "bytes")
	e.int(p.Messages.Bytes)
	e.key(false, "avg_bytes")
	e.float(p.Messages.AvgBytes)
	e.key(false, "rate")
	e.float(p.Messages.Rate)
	e.close('}')
	e.key(false, "properties")
	switch {
	case p.Properties == nil:
		e.raw("null")
	case len(p.Properties) == 0:
		e.raw("[]")
	default:
		e.open('[')
		for i := range p.Properties {
			e.elem(i == 0)
			e.property(&p.Properties[i])
		}
		e.close(']')
	}
	e.close('}')
}

func (e *encoder) run(r *RunInfo) {
	e.open('{')
	e.key(true, "clock")
	e.str(r.Clock)
	e.key(false, "procs")
	e.int(int64(r.Procs))
	e.key(false, "threads")
	e.int(int64(r.Threads))
	if len(r.Params) > 0 {
		e.key(false, "params")
		var stack [8]string
		keys := stack[:0]
		for k := range r.Params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		e.open('{')
		for i, k := range keys {
			e.elem(i == 0)
			e.str(k)
			e.buf = append(e.buf, ':')
			if !e.compact {
				e.buf = append(e.buf, ' ')
			}
			e.str(r.Params[k])
		}
		e.close('}')
	}
	e.close('}')
}

func (e *encoder) property(p *Property) {
	e.open('{')
	e.key(true, "name")
	e.str(p.Name)
	e.key(false, "wait_s")
	e.float(p.Wait)
	e.key(false, "severity")
	e.float(p.Severity)
	e.key(false, "instances")
	e.int(int64(p.Instances))
	e.key(false, "significant")
	e.bool(p.Significant)
	if p.Info {
		e.key(false, "info")
		e.bool(true)
	}
	if len(p.Paths) > 0 {
		e.key(false, "paths")
		e.open('[')
		for i := range p.Paths {
			e.elem(i == 0)
			e.open('{')
			e.key(true, "path")
			e.str(p.Paths[i].Path)
			e.key(false, "wait_s")
			e.float(p.Paths[i].Wait)
			e.close('}')
		}
		e.close(']')
	}
	if len(p.Locations) > 0 {
		e.key(false, "locations")
		e.open('[')
		for i := range p.Locations {
			l := &p.Locations[i]
			e.elem(i == 0)
			e.open('{')
			e.key(true, "rank")
			e.int(int64(l.Rank))
			e.key(false, "thread")
			e.int(int64(l.Thread))
			e.key(false, "wait_s")
			e.float(l.Wait)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
}
