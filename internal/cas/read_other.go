//go:build !unix

package cas

import (
	"io"
	"os"
)

// readInto reads the file at path as Dir.ReadInto describes, through an
// *os.File where raw Unix system calls are unavailable.
func readInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf = buf[:cap(buf)]
	n := 0
	for {
		if n == len(buf) {
			buf = append(buf, make([]byte, len(buf)+512)...)
		}
		m, err := f.Read(buf[n:])
		n += m
		if err == io.EOF || (err == nil && n < len(buf)) {
			return buf[:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}
