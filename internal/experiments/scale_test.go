package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestScaleSmall runs the scale experiment at toy rank counts; the
// streamed-vs-materialized hash and event-count assertions live inside
// Scale itself, so a nil error is the equivalence check.
func TestScaleSmall(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Scale(&buf, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 rank counts x 2 modes)", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		s, m := rows[i], rows[i+1]
		if s.Mode != "streamed" || m.Mode != "materialized" {
			t.Fatalf("row pair %d: modes %q/%q", i, s.Mode, m.Mode)
		}
		if s.Hash != m.Hash || s.Events != m.Events {
			t.Fatalf("P=%d: Scale returned mismatched rows despite passing: %+v vs %+v", s.Procs, s, m)
		}
		if s.PeakHeap == 0 || m.PeakHeap == 0 {
			t.Fatalf("P=%d: zero peak-heap sample", s.Procs)
		}
	}
	if !strings.Contains(buf.String(), "streamed") {
		t.Fatal("Scale wrote no table")
	}
}

// TestScaleStreamedHashIndependentOfWorkers runs the streamed pipeline
// concurrently on the campaign pool at different worker counts: the
// profile hash of each run must match the sequential run's, no matter how
// the jobs interleave — the same output-identity guarantee the experiment
// campaigns make for the materialized path.
func TestScaleStreamedHashIndependentOfWorkers(t *testing.T) {
	const jobs = 6
	hashes := func(workers int) []string {
		out := make([]string, jobs)
		err := campaign.Stream(jobs,
			campaign.Options{Workers: workers},
			func(i int) (string, error) {
				_, h, err := runScaleStreamed(2+i%3, scaleBody)
				return h, err
			},
			func(i int, h string) error {
				out[i] = h
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := hashes(1)
	par := hashes(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("job %d: hash differs between -j 1 (%s) and -j 8 (%s)", i, seq[i], par[i])
		}
	}
}

// TestScaleStreamedBig runs the big-rank experiment at toy counts: rows
// must be well-formed and byte-deterministic across repeats (the
// committed bench baseline depends on the hash being a pure function of
// the rank count).
func TestScaleStreamedBig(t *testing.T) {
	var buf bytes.Buffer
	rows, err := ScaleStreamed(&buf, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	again, err := ScaleStreamed(&buf, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Events == 0 || r.PeakHeap == 0 || r.EventsPerSec <= 0 {
			t.Fatalf("row %+v: degenerate measurement", r)
		}
		if again[i].Hash != r.Hash || again[i].Events != r.Events {
			t.Fatalf("P=%d: not deterministic across repeats: %+v vs %+v", r.Procs, r, again[i])
		}
	}
	if !strings.Contains(buf.String(), "scalebig") {
		t.Fatal("ScaleStreamed wrote no table")
	}
}

// TestScaleBigProfileEncoding holds the profile's hand encoder to
// json.MarshalIndent on the largest profile the suite produces, the
// 16384-rank scalebig run, and pins that run's committed hash (the one
// CI's scale-smoke job greps for).  It takes a few seconds and ~110 MiB,
// so -short and the race detector skip it.
func TestScaleBigProfileEncoding(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("16384-rank run: skipped in -short mode and under the race detector")
	}
	p, err := scaleStreamedProfile(16384, scaleBigBody)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal (%d bytes) differs from json.MarshalIndent (%d bytes)", len(got), len(want))
	}
	hash, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(want); hash != hex.EncodeToString(sum[:]) || !strings.HasPrefix(hash, "7b88ff80e678") {
		t.Fatalf("hash %s, want the sha256 of the encoding and prefix 7b88ff80e678", hash)
	}
}
