// Package cas is the content-addressed object layout shared by the
// regression store (package regress) and the result cache (package
// rescache).  Objects are immutable blobs named by a 64-hex content key
// and sharded git-style, as Perun stores its profiles:
//
//	<root>/objects/<key[:2]>/<key>.json
//
// Two hex characters of fan-out keep directory sizes manageable at
// million-object scale.  Writes are atomic (a temp file in the shard,
// then a rename), so a reader never observes a partial object; reads
// accept only valid keys, so an attacker-supplied key (../../secret, an
// absolute path, a %2F-smuggled slash) can never name a file outside
// objects/.
package cas

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ext is the object file suffix; tempPrefix starts every temp file name,
// which no object name does.
const (
	ext        = ".json"
	tempPrefix = "."
)

var errInvalidKey = fmt.Errorf("cas: not a content key: %w", fs.ErrNotExist)

// ValidKey reports whether key has the only form an object is ever named
// by: 64 lowercase hex characters (a SHA-256 digest).
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Dir is the objects/ tree under one store root.
type Dir struct{ objects string }

// Open returns the object tree under root, creating root/objects.
func Open(root string) (Dir, error) {
	d := Dir{objects: filepath.Join(root, "objects")}
	return d, os.MkdirAll(d.objects, 0o755)
}

// sep is the path separator as a string.
const sep = string(os.PathSeparator)

// Path returns the file of a valid key.  It concatenates instead of
// calling filepath.Join: the objects/ path is already clean, and a valid
// key holds neither separators nor dots, so the result is the same
// without the Clean pass a lookup would otherwise pay.
func (d Dir) Path(key string) string {
	return d.objects + sep + key[:2] + sep + key + ext
}

// Has reports whether an object is stored under key.
func (d Dir) Has(key string) bool {
	if !ValidKey(key) {
		return false
	}
	_, err := os.Stat(d.Path(key))
	return err == nil
}

// Stat checks, without opening it, that an object is stored under key.
// It fails as Open would: an invalid key as fs.ErrNotExist, a missing
// object with the *fs.PathError of the open, so an error reads the same
// whichever of the two a caller checked with.
func (d Dir) Stat(key string) error {
	if !ValidKey(key) {
		return errInvalidKey
	}
	_, err := os.Stat(d.Path(key))
	var pe *fs.PathError
	if errors.As(err, &pe) {
		pe.Op = "open"
	}
	return err
}

// ReadInto reads the object stored under key into buf[:0] and returns
// the filled slice, growing buf only for an object larger than its
// capacity, so a caller passing a stack buffer reads a small object with
// one open and one read and no allocation for the bytes.  A read that
// does not fill the buffer ends the object: a regular file reads short
// only at its end, and a read cut short anywhere else yields a truncated
// object, which callers must reject by content (every object here is a
// self-delimiting JSON document).  An invalid key reads as
// fs.ErrNotExist.
func (d Dir) ReadInto(key string, buf []byte) ([]byte, error) {
	if !ValidKey(key) {
		return nil, errInvalidKey
	}
	return readInto(d.Path(key), buf)
}

// Open opens the object stored under key for streaming.  An invalid key
// opens as fs.ErrNotExist.
func (d Dir) Open(key string) (*os.File, error) {
	if !ValidKey(key) {
		return nil, errInvalidKey
	}
	return os.Open(d.Path(key))
}

// Write stores blob under key atomically, replacing any previous object.
// Concurrent writers of one key race benignly: the last rename wins and
// every reader sees one complete blob.
func (d Dir) Write(key string, blob []byte) error {
	if !ValidKey(key) {
		return errInvalidKey
	}
	shard := filepath.Dir(d.Path(key))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(shard, tempPrefix+key+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), d.Path(key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Walk calls fn with every stored key in ascending order.  It reads
// directory names only; temp files and foreign names are skipped.
func (d Dir) Walk(fn func(key string) error) error {
	return d.walk(func(_, name string) error {
		if key, ok := strings.CutSuffix(name, ext); ok && ValidKey(key) {
			return fn(key)
		}
		return nil
	})
}

// Sweep walks every shard once, deleting the temp files that crashed
// writers left behind and every other file whose key keep rejects.  A
// file that is no object reaches keep as the empty key, so foreign names
// are swept too.  It returns how many non-temp files it saw and removed.
func (d Dir) Sweep(keep func(key string) bool) (scanned, removed int, err error) {
	err = d.walk(func(shard, name string) error {
		temp := strings.HasPrefix(name, tempPrefix)
		if !temp {
			scanned++
			key, ok := strings.CutSuffix(name, ext)
			if !ok {
				key = ""
			}
			if keep(key) {
				return nil
			}
		}
		if err := os.Remove(filepath.Join(shard, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if !temp {
			removed++
		}
		return nil
	})
	return scanned, removed, err
}

// walk calls fn for every file in every shard, in name order.  A missing
// objects/ tree is empty.
func (d Dir) walk(fn func(shard, name string) error) error {
	shards, err := os.ReadDir(d.objects)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		shard := filepath.Join(d.objects, sh.Name())
		files, err := os.ReadDir(shard)
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			if err := fn(shard, f.Name()); err != nil {
				return err
			}
		}
	}
	return nil
}
