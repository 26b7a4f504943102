//go:build !unix

package regress

import "os"

// lockFile is a no-op where flock is unavailable: refs updates are then
// serialized within one Store handle only.
func lockFile(*os.File) error { return nil }
