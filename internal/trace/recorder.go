package trace

// Recorder owns the per-location buffers of one run, from the executor
// that starts recording into a buffer to the end of the run.  Every
// traced run records one way: buffers are attached to a ChunkWriter,
// spill chunk frames while they record and are finished as their
// executors complete.  Given no writer, the recorder spools into a pooled
// in-memory buffer and Trace reads that spool back, so a materialized
// trace is exactly what a streamed run of the same events would merge.
//
// A nil *Recorder is an untraced run: Buffer returns nil (on which every
// recording call is a no-op) and Done and Trace do nothing.  Buffer and
// Done are safe for concurrent use, one call per executor.
type Recorder struct {
	w     *ChunkWriter
	spool *MemSpool // the in-memory spool behind w, nil for a caller's writer
}

// NewRecorder returns a recorder that spools into w, or into memory, to
// be read back by Trace, when w is nil.
func NewRecorder(w *ChunkWriter) *Recorder {
	if w != nil {
		return &Recorder{w: w}
	}
	spool := getSpool()
	return &Recorder{w: NewChunkWriterTo(spool, DefaultSpillEvents), spool: spool}
}

// Buffer returns a fresh buffer for loc, attached to the recorder's
// writer.
func (r *Recorder) Buffer(loc Location) *Buffer {
	if r == nil {
		return nil
	}
	b := NewBuffer(loc)
	r.w.Attach(b)
	return b
}

// Done hands back a buffer whose executor has stopped recording: its tail
// is flushed and the buffer recycled at once.
func (r *Recorder) Done(b *Buffer) {
	if r == nil || b == nil {
		return
	}
	// A spool error is sticky in the writer; Trace reports it.
	r.w.Finish(b)
	b.Release()
}

// Trace ends the run once every buffer is Done.  Spooling into a caller's
// writer, it returns a nil trace and the writer's first error, if any;
// the caller closes the writer.  Spooling into memory, it closes the
// spool, merges it into the returned trace and recycles it.
func (r *Recorder) Trace() (*Trace, error) {
	if r == nil {
		return nil, nil
	}
	if r.spool == nil {
		return nil, r.w.Err()
	}
	defer r.spool.Release()
	if err := r.w.Close(); err != nil {
		return nil, err
	}
	return r.spool.read()
}
