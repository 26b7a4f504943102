package trace

import "fmt"

// Limits bounds untrusted trace input beyond the structural plausibility
// checks that NewChunkReader always applies.  The structural checks
// (checkCount) only reject counts the input *cannot* hold; a network
// ingest path additionally wants policy caps — a server must be able to
// say "no upload may carry more than N events", independent of how many
// bytes the client managed to send.  Zero fields are unlimited, so the
// zero Limits applies the structural checks alone.
type Limits struct {
	// MaxEvents caps the total number of events an input may carry: the
	// sum of the index's per-stream counts.
	MaxEvents int64
	// MaxLocations caps the number of distinct locations: the index's
	// stream count.
	MaxLocations int
	// MaxFrame caps one frame body in bytes.  Frames are the unit a
	// streaming reader materializes, so this bounds per-frame memory even
	// when the spool as a whole is large.
	MaxFrame int64
}

// checkEvents enforces MaxEvents against an announced or accumulated
// event count.
func (l Limits) checkEvents(n uint64) error {
	if l.MaxEvents > 0 && n > uint64(l.MaxEvents) {
		return fmt.Errorf("trace: input carries %d events, limit %d", n, l.MaxEvents)
	}
	return nil
}

// checkLocations enforces MaxLocations against a location/stream count.
func (l Limits) checkLocations(n uint64) error {
	if l.MaxLocations > 0 && n > uint64(l.MaxLocations) {
		return fmt.Errorf("trace: input carries %d locations, limit %d", n, l.MaxLocations)
	}
	return nil
}

// checkFrame enforces MaxFrame against one frame body length.
func (l Limits) checkFrame(n int64) error {
	if l.MaxFrame > 0 && n > l.MaxFrame {
		return fmt.Errorf("trace: chunk frame of %d bytes, limit %d", n, l.MaxFrame)
	}
	return nil
}
