package trace

import "sync"

// Recorder owns the per-location buffers of one run, from the executor
// that starts recording into a buffer to the end of the run.  It makes
// the one decision every runtime would otherwise repeat: with a
// ChunkWriter, buffers spill chunk frames while they record and are
// finished as their executors complete, so the run materializes nothing;
// without one, finished buffers are kept and merged at the end.
//
// A nil *Recorder is an untraced run: Buffer returns nil (on which every
// recording call is a no-op) and Done and Trace do nothing.  Buffer and
// Done are safe for concurrent use, one call per executor.
type Recorder struct {
	w    *ChunkWriter
	mu   sync.Mutex
	kept []*Buffer
}

// NewRecorder returns a recorder that spools into w, or that merges its
// buffers in memory when w is nil.
func NewRecorder(w *ChunkWriter) *Recorder { return &Recorder{w: w} }

// Buffer returns a fresh buffer for loc, attached to the writer when the
// recorder has one.
func (r *Recorder) Buffer(loc Location) *Buffer {
	if r == nil {
		return nil
	}
	b := NewBuffer(loc)
	if r.w != nil {
		r.w.Attach(b)
	}
	return b
}

// Done hands back a buffer whose executor has stopped recording.  With a
// writer the buffer's tail is flushed and the buffer recycled at once;
// otherwise it is kept for Trace.
func (r *Recorder) Done(b *Buffer) {
	if r == nil || b == nil {
		return
	}
	if r.w != nil {
		// A spool error is sticky in the writer; Trace reports it.
		r.w.Finish(b)
		b.Release()
		return
	}
	r.mu.Lock()
	r.kept = append(r.kept, b)
	r.mu.Unlock()
}

// Trace ends the run once every buffer is Done.  Without a writer it
// merges and releases the kept buffers and returns the trace; with one it
// returns a nil trace and the writer's first error, if any.
func (r *Recorder) Trace() (*Trace, error) {
	if r == nil {
		return nil, nil
	}
	if r.w != nil {
		return nil, r.w.Err()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := Merge(r.kept...)
	// Merge copies the events out, so the buffers are released now, to be
	// recycled for the next run.
	for _, b := range r.kept {
		b.Release()
	}
	r.kept = nil
	return tr, nil
}
