package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// mapCache is the in-memory Cache used by the Cached tests.
type mapCache struct {
	mu      sync.Mutex
	m       map[string][]byte
	gets    int
	puts    int
	putErr  error
	failAll bool
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][]byte)} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.putErr != nil {
		return c.putErr
	}
	if !c.failAll {
		c.m[key] = append([]byte(nil), value...)
	}
	return nil
}

func key(i int) string { return fmt.Sprintf("%064x", i) }

func TestMemoHitSkipsJob(t *testing.T) {
	c := newMapCache()
	runs := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 5; i++ {
			v, err := Cached(c, key(i), func() (int, error) {
				runs++
				return i * i, nil
			})
			if err != nil || v != i*i {
				t.Fatalf("pass %d job(%d) = %d, %v", pass, i, v, err)
			}
		}
	}
	if runs != 5 {
		t.Fatalf("jobs ran %d times; want 5 (second pass all hits)", runs)
	}
}

func TestMemoNilCacheAndEmptyKeyPassThrough(t *testing.T) {
	runs := 0
	raw := func() (int, error) { runs++; return 1, nil }
	Cached(nil, key(1), raw)
	Cached(nil, key(1), raw)
	if runs != 2 {
		t.Fatalf("nil cache memoized: %d runs", runs)
	}
	runs = 0
	c := newMapCache()
	Cached(c, "", raw)
	Cached(c, "", raw)
	if runs != 2 || c.gets != 0 || c.puts != 0 {
		t.Fatalf("empty key touched the cache: runs=%d gets=%d puts=%d", runs, c.gets, c.puts)
	}
}

func TestMemoErrorsNotCached(t *testing.T) {
	c := newMapCache()
	fail := true
	job := func() (int, error) {
		return Cached(c, key(0), func() (int, error) {
			if fail {
				return 0, errors.New("transient")
			}
			return 7, nil
		})
	}
	if _, err := job(); err == nil {
		t.Fatal("expected error")
	}
	if len(c.m) != 0 {
		t.Fatal("failed job was cached")
	}
	fail = false
	if v, err := job(); err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if len(c.m) != 1 {
		t.Fatal("successful retry was not cached")
	}
}

func TestMemoCorruptEntryRecomputesAndOverwrites(t *testing.T) {
	c := newMapCache()
	c.m[key(3)] = []byte("not json at all")
	runs := 0
	v, err := Cached(c, key(3), func() (int, error) { runs++; return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("job = %d, %v", v, err)
	}
	if runs != 1 {
		t.Fatal("corrupt entry did not fall through to the job")
	}
	var stored int
	if err := json.Unmarshal(c.m[key(3)], &stored); err != nil || stored != 42 {
		t.Fatalf("overwrite: %q (%v)", c.m[key(3)], err)
	}
}

func TestMemoPutFailureIsIgnored(t *testing.T) {
	c := newMapCache()
	c.putErr = errors.New("disk full")
	runs := 0
	for pass := 0; pass < 2; pass++ {
		v, err := Cached(c, key(9), func() (int, error) { runs++; return 9, nil })
		if err != nil || v != 9 {
			t.Fatalf("pass %d: %d, %v", pass, v, err)
		}
	}
	if runs != 2 {
		t.Fatalf("write-rejecting cache changed results: %d runs", runs)
	}
}

// TestMemoUnderStreamInterleavedHits runs a campaign of Cached jobs where some
// indices are warm and others cold: delivery order, values, and the
// lowest-failing-index contract must be indistinguishable from an
// unmemoized run.
func TestMemoUnderStreamInterleavedHits(t *testing.T) {
	const n = 40
	c := newMapCache()
	// Pre-warm the even indices with the values a cold run would produce.
	for i := 0; i < n; i += 2 {
		blob, _ := json.Marshal(i * 10)
		c.m[key(i)] = blob
	}
	var mu sync.Mutex
	runs := 0
	job := func(i int) (int, error) {
		return Cached(c, key(i), func() (int, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			return i * 10, nil
		})
	}
	var got []int
	err := Stream(n, Options{Workers: 8}, job, func(i int, v int) error {
		if v != i*10 {
			return fmt.Errorf("job %d delivered %d", i, v)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, idx := range got {
		if i != idx {
			t.Fatalf("out-of-order delivery at %d: %d", i, idx)
		}
	}
	if runs != n/2 {
		t.Fatalf("cold jobs ran %d times; want %d", runs, n/2)
	}
}

// TestMemoPanicConfinement: a panic inside a Cached computation is
// confined by the pool exactly as without Cached, and nothing is cached
// for it.
func TestMemoPanicConfinement(t *testing.T) {
	c := newMapCache()
	job := func(i int) (int, error) {
		return Cached(c, key(i), func() (int, error) {
			if i == 2 {
				panic("boom")
			}
			return i, nil
		})
	}
	_, err := Run(5, Options{Workers: 2}, job)
	var ce *Error
	if !errors.As(err, &ce) || ce.Index != 2 {
		t.Fatalf("err = %v; want *Error at index 2", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v; want PanicError inside", err)
	}
	if _, ok := c.m[key(2)]; ok {
		t.Fatal("panicking job left a cache entry")
	}
}
