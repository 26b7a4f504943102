//go:build unix

package regress

import (
	"os"
	"syscall"
)

// lockFile blocks until it holds an exclusive flock on f.  The lock is
// released when f is closed.
func lockFile(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return err
		}
	}
}
