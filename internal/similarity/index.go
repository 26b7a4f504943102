package similarity

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// IndexSchema identifies the on-disk index-log format; bump it on any
// breaking change to the header or entry encoding below.
const IndexSchema = 1

// IndexLogName is the index file inside an index directory.
const IndexLogName = "index.log"

// indexHeader is the first line of the log: the stamp that makes the
// index self-invalidating.  Any mismatch — format version, LSH
// geometry, or the profile schema the embeddings were computed from —
// discards the log and triggers a rebuild, the same discipline the
// result cache (package rescache) applies to its env stamp.
type indexHeader struct {
	Schema        int    `json:"schema"`
	Params        Params `json:"params"`
	ProfileSchema int    `json:"profile_schema"`
}

// indexEntry is one embedding line.  Vec components are rounded to
// float32 before writing, matching the in-memory representation, so an
// index reloaded from disk is bit-identical to the one that wrote it.
type indexEntry struct {
	Hash string    `json:"hash"`
	Vec  []float64 `json:"vec"`
}

// PersistentIndex is an Index backed by an append-only log: every Add
// lands in memory and as one JSON line on disk, so reopening the log
// replays the exact index state in O(entries) with no re-embedding.
// Several handles — in one process or many — may share a log: each
// appends its own entries, and Refresh replays the ones the others
// appended.  It is safe for concurrent use by multiple goroutines.
type PersistentIndex struct {
	mu   sync.Mutex
	path string
	want indexHeader
	ix   *Index
	// f is the log opened for append (and for pread of the tail other
	// writers append); fi is its identity, compared against the path
	// to notice a log replaced by another process.
	f  *os.File
	fi os.FileInfo
	// off is how many bytes of the log have been replayed into ix.  It
	// always sits on a line boundary.
	off int64
}

var errClosed = errors.New("similarity: index is closed")

// IndexExists reports whether dir holds an index log (of any vintage).
func IndexExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, IndexLogName))
	return err == nil
}

// OpenIndex opens (creating if necessary) the persistent index in dir.
// A log whose stamp does not match (params, IndexSchema, profileSchema)
// is discarded and restarted empty — the caller is expected to backfill
// from the profile store, which holds the ground truth.  A line that
// does not decode is skipped, and a torn final line (a crash mid-write)
// is newline-terminated so later appends start cleanly after it.
func OpenIndex(dir string, params Params, profileSchema int) (*PersistentIndex, error) {
	params = params.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("similarity: open index: %w", err)
	}
	pi := &PersistentIndex{
		path: filepath.Join(dir, IndexLogName),
		want: indexHeader{Schema: IndexSchema, Params: params, ProfileSchema: profileSchema},
	}
	if err := pi.load(); err != nil {
		return nil, err
	}
	return pi, nil
}

// load replays the whole log into a fresh in-memory index and opens it
// for append, first restarting it with a header when it is missing or
// stamped by another world.  The log is read through the descriptor
// that is kept, so the replayed bytes and the appended-to file are the
// same file even if another process replaces the path meanwhile.
func (pi *PersistentIndex) load() error {
	for attempt := 0; attempt < 3; attempt++ {
		f, err := os.OpenFile(pi.path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("similarity: open index: %w", err)
		}
		if err == nil {
			ok, err := pi.replayLog(f)
			if ok || err != nil {
				if err != nil {
					f.Close()
				}
				return err
			}
			f.Close()
		}
		if err := pi.writeHeader(); err != nil {
			return err
		}
	}
	return fmt.Errorf("similarity: index log %s keeps being restamped", pi.path)
}

// replayLog reads f from the start into a fresh index and, when its
// header carries our stamp, adopts f as the log handle.  ok is false
// when the header does not match.
func (pi *PersistentIndex) replayLog(f *os.File) (ok bool, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return false, fmt.Errorf("similarity: read index: %w", err)
	}
	header, _, _ := bytes.Cut(data, []byte("\n"))
	var have indexHeader
	if len(header) == len(data) || json.Unmarshal(header, &have) != nil || have != pi.want {
		return false, nil
	}
	ix := NewIndex(pi.want.Params)
	off := len(header) + 1
	n, _ := replay(ix, data[off:])
	off += n
	if off < len(data) {
		// A final line without its newline: torn by a crash, or still
		// being written.  Terminating it is safe either way — after a
		// finished write the newline only adds an empty line — and keeps
		// the next append from fusing with it.
		if _, err := f.Write([]byte("\n")); err != nil {
			return false, fmt.Errorf("similarity: terminate torn index tail: %w", err)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("similarity: stat index: %w", err)
	}
	pi.ix, pi.f, pi.fi, pi.off = ix, f, fi, int64(off)
	return true, nil
}

// writeHeader restarts the log with just the header line, atomically
// (unique temp file + rename) so a crash never leaves a half-written
// header behind the existence fast-path.
func (pi *PersistentIndex) writeHeader() error {
	blob, err := json.Marshal(pi.want)
	if err != nil {
		return fmt.Errorf("similarity: marshal header: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(pi.path), IndexLogName+".*.tmp")
	if err != nil {
		return fmt.Errorf("similarity: write index: %w", err)
	}
	_, err = f.Write(append(blob, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), pi.path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("similarity: write index: %w", err)
	}
	return nil
}

// replay indexes the whole lines of data into ix and returns how many
// bytes they span; an unterminated final line is left unread.  corrupt
// reports a complete line that did not decode — it is skipped, and the
// entry it held is missing from ix.  Empty lines are skipped silently.
func replay(ix *Index, data []byte) (n int, corrupt bool) {
	for {
		i := bytes.IndexByte(data[n:], '\n')
		if i < 0 {
			return n, corrupt
		}
		line := data[n : n+i]
		n += i + 1
		if len(line) == 0 {
			continue
		}
		var e indexEntry
		if json.Unmarshal(line, &e) != nil || ix.Add(e.Hash, e.Vec) != nil {
			corrupt = true
		}
	}
}

// Refresh brings the index up to date with the log, which other handles
// and processes append to.  When the log has not grown it costs one
// os.Stat; otherwise it replays only the whole lines appended since the
// last Open or Refresh, leaving a line still being written for a later
// call.  When the log was replaced or shrank (another process rebuilt
// it after a stamp mismatch), Refresh reloads it from scratch.
//
// stale reports that the index may now lack entries the store holds —
// after a reload, or after skipping a corrupt line — so the caller
// should backfill from the profile store.
func (pi *PersistentIndex) Refresh() (stale bool, err error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.f == nil {
		return false, errClosed
	}
	st, err := os.Stat(pi.path)
	if err != nil && !os.IsNotExist(err) {
		return false, fmt.Errorf("similarity: refresh index: %w", err)
	}
	if err != nil || !os.SameFile(st, pi.fi) || st.Size() < pi.off {
		pi.f.Close()
		pi.f = nil
		return true, pi.load()
	}
	if st.Size() == pi.off {
		return false, nil
	}
	tail := make([]byte, st.Size()-pi.off)
	got, err := pi.f.ReadAt(tail, pi.off)
	if err != nil && err != io.EOF {
		return false, fmt.Errorf("similarity: refresh index: %w", err)
	}
	n, corrupt := replay(pi.ix, tail[:got])
	pi.off += int64(n)
	return corrupt, nil
}

// Path returns the log location.
func (pi *PersistentIndex) Path() string { return pi.path }

// Params returns the index geometry.
func (pi *PersistentIndex) Params() Params { return pi.want.Params }

// Len returns the number of indexed profiles.
func (pi *PersistentIndex) Len() int {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Len()
}

// Has reports whether the profile hash is indexed.
func (pi *PersistentIndex) Has(hash string) bool {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Has(hash)
}

// Add indexes one embedding and appends it to the log.  Adding a known
// hash is a no-op, so replaying a store into an existing index is
// idempotent.
func (pi *PersistentIndex) Add(hash string, vec []float64) error {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.ix.Has(hash) {
		return nil
	}
	if pi.f == nil {
		return errClosed
	}
	// Round through float32 first so the logged entry replays to the
	// exact in-memory vector (rebuild ≡ incremental, bit for bit).
	rounded := make([]float64, len(vec))
	for i, x := range vec {
		rounded[i] = float64(float32(x))
	}
	if err := pi.ix.Add(hash, rounded); err != nil {
		return err
	}
	blob, err := json.Marshal(indexEntry{Hash: hash, Vec: rounded})
	if err != nil {
		return fmt.Errorf("similarity: marshal entry: %w", err)
	}
	line := append(blob, '\n')
	if _, err := pi.f.Write(line); err != nil {
		return fmt.Errorf("similarity: append index: %w", err)
	}
	// Our own entry needs no replay.  When it landed right at the
	// replayed offset (no other writer appended in between), step past
	// it; otherwise Refresh replays it with the others' and skips it as
	// known.
	if end, err := pi.f.Seek(0, io.SeekCurrent); err == nil && end-int64(len(line)) == pi.off {
		pi.off = end
	}
	return nil
}

// Query is Index.Query under the lock.
func (pi *PersistentIndex) Query(vec []float64, k int) ([]Match, int, error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Query(vec, k)
}

// Scan is Index.Scan (exact brute force) under the lock.
func (pi *PersistentIndex) Scan(vec []float64, k int) ([]Match, error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Scan(vec, k)
}

// Close releases the append handle.  The index stays readable.
func (pi *PersistentIndex) Close() error {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.f == nil {
		return nil
	}
	err := pi.f.Close()
	pi.f = nil
	return err
}
