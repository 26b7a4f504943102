//go:build unix

package cas

import (
	"io/fs"
	"syscall"
)

// readInto reads the file at path as Dir.ReadInto describes, with raw
// system calls: an *os.File would add a poller registration, a finalizer
// and two allocations, about half the cost of reading a small object.
func readInto(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	buf = buf[:cap(buf)]
	n := 0
	for {
		if n == len(buf) {
			buf = append(buf, make([]byte, len(buf)+512)...)
		}
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &fs.PathError{Op: "read", Path: path, Err: err}
		}
		n += m
		if m == 0 || n < len(buf) {
			return buf[:n], nil
		}
	}
}
