package wal

import (
	"io/fs"
	"os"
	"sort"
)

// File is the slice of *os.File the log needs. Writes go through it so a
// fault-injecting implementation can tear them mid-record.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the filesystem seam every durability path runs through — appends,
// checkpoint rewrites, renames and the directory fsync that makes them
// durable, truncation, and recovery reads. Production code uses OSFS;
// crash-fault tests substitute internal/faultfs, which injects short writes, fsync
// and directory-sync errors, rename failures, and power-cut write caps
// without needing a real power cut.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// SyncDir fsyncs dir so a rename performed in it is itself durable.
	SyncDir(dir string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes (recovery uses it to discard a torn
	// log tail in place).
	Truncate(name string, size int64) error
	// ReadFile returns name's full contents.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error {
	return os.MkdirAll(dir, perm)
}

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		// A missing directory lists as empty: recovery treats it as a fresh
		// deployment and Open creates it.
		if _, ok := err.(*fs.PathError); ok && os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // read-only: the Sync's result is the one that counts
	return d.Sync()
}
