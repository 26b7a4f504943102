package conformance

// Result-cache wiring: the conformance oracle is a pure function of
// (case, options, engine version, perturbation profile), which makes its
// verdicts ideal content-addressed cache entries — a warm sweep replays
// each stored verdict (an Outcome: profile hash, event and finding
// counts, violations; the case itself is in the key, not the entry)
// byte-identically instead of re-running run+trace+analyze.  The cache
// is process-wide (SetResultCache), like campaign.SetDefaultWorkers:
// CLIs install it once from their -cache flag and every sweep layer —
// CheckCached, CheckRobust's per-level loop, noise-floor calibration,
// and the experiments' perturbed negative-correctness table — shares
// it.
//
// A CheckCached key is the SHA-256 of a JSON key document that checkKey
// appends by hand into a pooled buffer, because a warm hit is mostly key
// and read and json.Marshal's reflection was a third of it.  The bytes
// are exactly those json.Marshal writes for the same document (sorted
// map keys, and encoding/json's float format, string escaping and error
// on NaN and infinities through package jsonenc), so keys never changed
// with the encoder.  The oracle is
// TestCheckKeyMatchesJSON: json.Marshal of the equivalent struct,
// checkKeyDoc, over thousands of generated cases and hand-made edge
// cases.  The rarer calibration and perturbed-table keys still go
// through rescache.Key.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/jsonenc"
	"repro/internal/perturb"
	"repro/internal/rescache"
)

// resultCache is the installed process-wide store (nil: caching off).
var resultCache atomic.Pointer[rescache.Store]

// SetResultCache installs (or, with nil, removes) the process-wide
// result cache consulted by CheckCached, CheckRobust and
// CalibratedNoiseFloor.
func SetResultCache(s *rescache.Store) { resultCache.Store(s) }

// ResultCache returns the installed result cache, or nil.
func ResultCache() *rescache.Store { return resultCache.Load() }

// caseDefs maps each case property compiled from an ASL scenario to the
// SHA-256 of its source, so redefining a scenario under the same name
// changes the key.  Built-in properties are pinned by the environment
// stamp and add nothing: their cases keep their keys.
func caseDefs(cs Case) map[string]string {
	var defs map[string]string
	for _, p := range cs.Props {
		spec, ok := core.Get(p.Name)
		if !ok || spec.ASL == "" {
			continue
		}
		if defs == nil {
			defs = make(map[string]string)
		}
		sum := sha256.Sum256([]byte(spec.ASL))
		defs[p.Name] = hex.EncodeToString(sum[:])
	}
	return defs
}

// checkKey derives the content key of one oracle invocation: the
// SHA-256 of the key document, which holds everything a Check outcome
// depends on besides the versions of the machinery (rescache stamps those
// on every entry, see rescache.CurrentEnv):
//
//	{"kind":"conformance/check","case":<Case>,"noise_floor":F,
//	 "rel_tol":F,"abs_tol":F,"skip_determinism":B,"drop_property":S,
//	 "perturb":<perturb.Profile>,"defs":{name:sha256(ASL source)}}
//
// with opt's defaults applied and drop_property and defs omitted when
// empty.  An unencodable document (a NaN or infinite float) has no key.
func checkKey(cs Case, opt CheckOptions) (string, error) {
	opt = opt.withDefaults()
	bp := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(bp)
	e := keyEnc{buf: (*bp)[:0]}
	e.raw(`{"kind":"conformance/check","case":`)
	e.caseDoc(cs)
	e.raw(`,"noise_floor":`)
	e.float(opt.NoiseFloor)
	e.raw(`,"rel_tol":`)
	e.float(opt.RelTol)
	e.raw(`,"abs_tol":`)
	e.float(opt.AbsTol)
	e.raw(`,"skip_determinism":`)
	e.buf = strconv.AppendBool(e.buf, opt.SkipDeterminism)
	if opt.DropProperty != "" {
		e.raw(`,"drop_property":`)
		e.str(opt.DropProperty)
	}
	e.raw(`,"perturb":`)
	e.profile(opt.Perturb)
	if defs := caseDefs(cs); len(defs) > 0 {
		e.raw(`,"defs":`)
		encodeMap(&e, defs, e.str)
	}
	e.raw("}")
	*bp = e.buf
	if e.err != nil {
		return "", e.err
	}
	sum := sha256.Sum256(e.buf)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:]), nil
}

// keyBufs recycles the buffers checkKey encodes into.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// keyEnc appends a key document by hand, byte for byte as json.Marshal
// writes it: struct fields in declaration order with their tags and
// omitempty rules, map keys sorted, encoding/json's float format, and its
// error on NaN and infinities.  The oracle test holds it to json.Marshal
// of the same document (TestCheckKeyMatchesJSON).
type keyEnc struct {
	buf []byte
	err error
}

func (e *keyEnc) raw(s string) { e.buf = append(e.buf, s...) }

func (e *keyEnc) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

// str appends s as a JSON string, escaped as encoding/json escapes it.
func (e *keyEnc) str(s string) { e.buf = jsonenc.AppendString(e.buf, s) }

// float appends f in encoding/json's float64 format; NaN and the
// infinities leave the document without a key.
func (e *keyEnc) float(f float64) {
	var err error
	if e.buf, err = jsonenc.AppendFloat(e.buf, f); err != nil && e.err == nil {
		e.err = fmt.Errorf("conformance: check key: %w", err)
	}
}

func (e *keyEnc) caseDoc(cs Case) {
	e.raw(`{"schema":`)
	e.int(cs.Schema)
	e.raw(`,"seed":`)
	e.buf = strconv.AppendUint(e.buf, cs.Seed, 10)
	e.raw(`,"procs":`)
	e.int(cs.Procs)
	e.raw(`,"threads":`)
	e.int(cs.Threads)
	e.raw(`,"threshold":`)
	e.float(cs.Threshold)
	e.raw(`,"props":`)
	if cs.Props == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, p := range cs.Props {
			if i > 0 {
				e.raw(",")
			}
			e.prop(p)
		}
		e.raw("]")
	}
	e.raw("}")
}

func (e *keyEnc) prop(p CaseProp) {
	e.raw(`{"name":`)
	e.str(p.Name)
	if len(p.Float) > 0 {
		e.raw(`,"float":`)
		encodeMap(e, p.Float, e.float)
	}
	if len(p.Int) > 0 {
		e.raw(`,"int":`)
		encodeMap(e, p.Int, e.int)
	}
	if len(p.Distr) > 0 {
		e.raw(`,"distr":`)
		encodeMap(e, p.Distr, e.distr)
	}
	e.raw("}")
}

func (e *keyEnc) distr(d core.DistrSpec) {
	e.raw(`{"name":`)
	e.str(d.Name)
	e.raw(`,"low":`)
	e.float(d.Low)
	if d.High != 0 {
		e.raw(`,"high":`)
		e.float(d.High)
	}
	if d.Med != 0 {
		e.raw(`,"med":`)
		e.float(d.Med)
	}
	if d.N != 0 {
		e.raw(`,"n":`)
		e.int(d.N)
	}
	e.raw("}")
}

func (e *keyEnc) profile(p perturb.Profile) {
	e.raw(`{"level":`)
	e.int(p.Level)
	e.raw(`,"seed":`)
	e.buf = strconv.AppendUint(e.buf, p.Seed, 10)
	e.raw(`,"skew_max":`)
	e.float(p.SkewMax)
	e.raw(`,"stragglers":`)
	e.int(p.Stragglers)
	e.raw(`,"straggler_skew":`)
	e.float(p.StragglerSkew)
	e.raw(`,"msg_jitter":`)
	e.float(p.MsgJitter)
	e.raw(`,"coll_jitter":`)
	e.float(p.CollJitter)
	e.raw(`,"noise_rate":`)
	e.float(p.NoiseRate)
	e.raw(`,"noise_burst":`)
	e.float(p.NoiseBurst)
	e.raw("}")
}

// encodeMap appends m as a JSON object with its keys in sorted order,
// each value written by val.
func encodeMap[V any](e *keyEnc, m map[string]V, val func(V)) {
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.raw("{")
	for i, k := range keys {
		if i > 0 {
			e.raw(",")
		}
		e.str(k)
		e.raw(":")
		val(m[k])
	}
	e.raw("}")
}

// CheckCached is Check behind the process-wide result cache: a hit
// returns the stored Outcome without executing anything; a miss runs
// Check and writes the verdict through.  Without an installed cache it
// is exactly Check.  Errors (ill-formed cases) are never cached;
// failing Outcomes are — a deterministic FAIL verdict is as replayable
// as an ok one, and a warm rerun of a failing sweep must print the same
// bytes.
func CheckCached(cs Case, opt CheckOptions) (Outcome, error) {
	check := func() (Outcome, error) { return Check(cs, opt) }
	c := ResultCache()
	if c == nil {
		return check()
	}
	key, _ := checkKey(cs, opt) // an unkeyable case ("" key) recomputes
	return campaign.Cached(c, key, check)
}

// calKeyDoc keys one noise-floor calibration cell.  The profile's seed
// is normalized away by the caller (the floor is a property of shape ×
// disturbance magnitudes alone).
type calKeyDoc struct {
	Kind    string          `json:"kind"`
	Procs   int             `json:"procs"`
	Threads int             `json:"threads"`
	Profile perturb.Profile `json:"profile"`
}

// calDiskKey derives the on-disk key of one calibration cell.
func calDiskKey(k calKey) (string, error) {
	return rescache.Key(calKeyDoc{
		Kind:    "conformance/calibration",
		Procs:   k.procs,
		Threads: k.threads,
		Profile: k.prof,
	})
}
