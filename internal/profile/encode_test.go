package profile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/profile"
)

// checkCanonical holds the hand encoder to its definition: Marshal and
// MarshalHash return json.MarshalIndent(p, "", "  ") plus "\n", Hash is
// that encoding's sha256, and the config hash is the first 12 hex digits
// of the sha256 of json.Marshal(experiment, run, threshold).  A profile
// encoding/json refuses (a non-finite float) must be refused by Marshal
// and Hash too.  It returns the canonical bytes (nil when refused).
func checkCanonical(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	want, jerr := json.MarshalIndent(p, "", "  ")
	got, err := p.Marshal()
	hash, herr := p.Hash()
	blob, mhash, merr := p.MarshalHash()
	if jerr != nil {
		if err == nil || herr == nil || merr == nil {
			t.Fatalf("encoding/json refuses the profile (%v), the hand encoder does not: %v, %v, %v", jerr, err, herr, merr)
		}
		return nil
	}
	if err != nil || herr != nil || merr != nil {
		t.Fatalf("hand encoder refuses a profile encoding/json accepts: %v, %v, %v", err, herr, merr)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal differs from json.MarshalIndent at byte %d:\n got: %q\nwant: %q",
			firstDiff(got, want), got, want)
	}
	sum := sha256.Sum256(want)
	if h := hex.EncodeToString(sum[:]); hash != h || mhash != h || !bytes.Equal(blob, want) {
		t.Fatalf("Hash %s, MarshalHash %s, want %s", hash, mhash, h)
	}
	cfg, cerr := json.Marshal(struct {
		Experiment string          `json:"experiment"`
		Run        profile.RunInfo `json:"run"`
		Threshold  float64         `json:"threshold"`
	}{p.Experiment, p.Run, p.Threshold})
	wantCfg := ""
	if cerr == nil {
		sum := sha256.Sum256(cfg)
		wantCfg = hex.EncodeToString(sum[:])[:12]
	}
	if got := profile.ConfigHash(p); got != wantCfg {
		t.Fatalf("config hash %q, want %q (json %s)", got, wantCfg, cfg)
	}
	return got
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestCanonicalEncodingMatchesJSON runs the encoder oracle over real
// profiles: a fresh Fig 3.5 run, the committed regression-store object
// (whose file bytes and name are its encoding and hash), and the
// unperturbed profiles of the committed conformance corpus.
func TestCanonicalEncodingMatchesJSON(t *testing.T) {
	tr, rep := runFig35(t, 8)
	checkCanonical(t, mustFromRun(t, "fig35_two_communicators", tr, rep, profile.RunInfo{}))

	objs, err := filepath.Glob("../../testdata/regress-store/objects/*/*.json")
	if err != nil || len(objs) == 0 {
		t.Fatalf("no committed store objects: %v", err)
	}
	for _, path := range objs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := profile.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := checkCanonical(t, p); !bytes.Equal(got, raw) {
			t.Fatalf("%s: re-encoding changed the stored bytes", path)
		}
		if h, _ := p.Hash(); h+".json" != filepath.Base(path) {
			t.Fatalf("%s: hash %s", path, h)
		}
	}

	entries, err := conformance.LoadCorpus("../../testdata/conformance-corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("corpus holds %d cases, want 10", len(entries))
	}
	for _, e := range entries {
		p, _, err := conformance.CaseProfile(e.Case, "")
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		checkCanonical(t, p)
	}
}

// FuzzProfileEncoding runs the encoder oracle on random profiles: strings
// with HTML-unsafe bytes, U+2028, control bytes and invalid UTF-8; floats
// from arbitrary bit patterns (exponent range, -0, NaN and infinities);
// nil versus empty Params, Paths and Properties.
func FuzzProfileEncoding(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte("\x02\x03\x01\x02\x02\x02"), "a<b>&c\u2028d\x00\x1f\xff\"\\")
	f.Add(binary.LittleEndian.AppendUint64([]byte{1, 1, 3, 1, 1, 1}, math.Float64bits(1e-7)), "x/y\u2029")
	f.Add(binary.LittleEndian.AppendUint64([]byte{2, 2, 3, 2, 2, 2}, math.Float64bits(math.Copysign(0, -1))), "\xe2\x80")
	f.Add(binary.LittleEndian.AppendUint64([]byte{0, 0, 2, 0, 0, 0}, math.Float64bits(1e21)), "main/MPI_Recv")
	f.Fuzz(func(t *testing.T, data []byte, strs string) {
		g := &profileGen{data: data, strs: strings.Split(strs, "|")}
		checkCanonical(t, g.profile())
	})
}

// profileGen draws a profile from fuzz input: data drives every choice
// and number, strs supplies the strings.
type profileGen struct {
	data []byte
	strs []string
	next int
}

func (g *profileGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *profileGen) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (g *profileGen) str() string {
	s := g.strs[g.next%len(g.strs)]
	g.next++
	return s
}

// float mixes quantum-grid values, signed zeros and raw bit patterns
// (which reach both exponent-form ranges and the non-finite values).
func (g *profileGen) float() float64 {
	switch g.byte() % 4 {
	case 0:
		return float64(int64(g.u64())%1e12) * 1e-9
	case 1:
		return math.Copysign(0, -1)
	default:
		return math.Float64frombits(g.u64())
	}
}

// count returns -1 for nil, 0 for empty, else a small length.
func (g *profileGen) count() int { return int(g.byte()%5) - 1 }

func (g *profileGen) profile() *profile.Profile {
	p := &profile.Profile{
		Schema:     int(int32(g.u64())),
		Experiment: g.str(),
		Run: profile.RunInfo{
			Clock: g.str(), Procs: int(int16(g.u64())), Threads: int(g.byte()),
		},
		ConfigHash: g.str(),
		Duration:   g.float(),
		TotalTime:  g.float(),
		Threshold:  g.float(),
		Events:     int(g.u64()),
	}
	p.Messages.Count = int(int32(g.u64()))
	p.Messages.Bytes = int64(g.u64())
	p.Messages.AvgBytes = g.float()
	p.Messages.Rate = g.float()
	if n := g.count(); n >= 0 {
		p.Run.Params = make(map[string]string, n)
		for i := 0; i < n; i++ {
			p.Run.Params[g.str()] = g.str()
		}
	}
	if n := g.count(); n >= 0 {
		p.Properties = make([]profile.Property, n)
		for i := range p.Properties {
			prop := &p.Properties[i]
			prop.Name = g.str()
			prop.Wait = g.float()
			prop.Severity = g.float()
			prop.Instances = int(int32(g.u64()))
			flags := g.byte()
			prop.Significant = flags&1 != 0
			prop.Info = flags&2 != 0
			if n := g.count(); n >= 0 {
				prop.Paths = make([]profile.PathWait, n)
				for j := range prop.Paths {
					prop.Paths[j] = profile.PathWait{Path: g.str(), Wait: g.float()}
				}
			}
			if n := g.count(); n >= 0 {
				prop.Locations = make([]profile.LocationWait, n)
				for j := range prop.Locations {
					prop.Locations[j] = profile.LocationWait{
						Rank: int32(g.u64()), Thread: int32(g.byte()), Wait: g.float(),
					}
				}
			}
		}
	}
	return p
}
