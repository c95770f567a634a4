// Package faultfs is a scriptable fault-injection filesystem for the
// write-ahead log's crash tests, the disk-side sibling of internal/faultnet.
// Only tests import it, so no serving binary carries it.
package faultfs

import (
	"errors"
	"os"
	"sync"

	"apcache/internal/wal"
)

// ErrPowerCut is returned by every FS operation once its write budget is
// exhausted: the moment the simulated machine lost power, nothing later
// reaches the disk.
var ErrPowerCut = errors.New("faultfs: simulated power cut")

// FS wraps a wal.FS with scriptable storage faults: short writes that tear
// a record in half, fsync, rename and directory-sync failures, and a byte
// budget that simulates a power cut at an exact write offset. Crash-fault
// tests drive it to prove that recovery survives a failure injected at every
// step of the append/rewrite/rename protocol.
//
// Fault settings apply to writes in the order the wrapped code issues them,
// so a test that sets a budget of N bytes cuts power at precisely the N-th
// appended byte regardless of how the log batches its writes.
type FS struct {
	base wal.FS

	mu          sync.Mutex
	writeBudget int64 // bytes still allowed to reach the disk; -1 = unlimited
	cut         bool  // budget exhausted: every later op fails
	shortWrite  int64 // next write applies only this many bytes; -1 = off
	syncErr     error // non-nil: Sync calls fail with it
	renameErr   error // non-nil: Rename calls fail with it
	dirSyncErr  error // non-nil: SyncDir calls fail with it

	bytesWritten int64
	syncs        int64
}

// New wraps base (wal.OSFS when nil) with no faults armed.
func New(base wal.FS) *FS {
	if base == nil {
		base = wal.OSFS
	}
	return &FS{base: base, writeBudget: -1, shortWrite: -1}
}

// CutPowerAfter arms the power cut: the next n bytes of writes are applied,
// everything after them — including the tail of the write that crosses the
// boundary — is lost, and every subsequent operation fails with ErrPowerCut.
func (f *FS) CutPowerAfter(n int64) {
	f.mu.Lock()
	f.writeBudget = n
	f.cut = n <= 0
	f.mu.Unlock()
}

// ShortWriteOnce makes the next write apply only its first n bytes and
// return an error, simulating a torn append without killing the filesystem.
func (f *FS) ShortWriteOnce(n int64) {
	f.mu.Lock()
	f.shortWrite = n
	f.mu.Unlock()
}

// FailSyncs makes every Sync fail with err (nil disarms).
func (f *FS) FailSyncs(err error) {
	f.mu.Lock()
	f.syncErr = err
	f.mu.Unlock()
}

// FailRenames makes every Rename fail with err (nil disarms).
func (f *FS) FailRenames(err error) {
	f.mu.Lock()
	f.renameErr = err
	f.mu.Unlock()
}

// FailDirSyncs makes every SyncDir fail with err (nil disarms).
func (f *FS) FailDirSyncs(err error) {
	f.mu.Lock()
	f.dirSyncErr = err
	f.mu.Unlock()
}

// BytesWritten reports how many bytes reached the underlying filesystem.
func (f *FS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytesWritten
}

// Syncs reports how many Sync calls reached the underlying filesystem.
func (f *FS) Syncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

func (f *FS) alive() error { return f.fault(nil) }

// fault returns ErrPowerCut after the cut, else the fault *armed holds (nil
// armed: none).
func (f *FS) fault(armed *error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cut {
		return ErrPowerCut
	}
	if armed == nil {
		return nil
	}
	return *armed
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FS) Rename(oldname, newname string) error {
	if err := f.fault(&f.renameErr); err != nil {
		return err
	}
	return f.base.Rename(oldname, newname)
}

func (f *FS) SyncDir(dir string) error {
	if err := f.fault(&f.dirSyncErr); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

func (f *FS) Remove(name string) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *FS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }
func (f *FS) ReadDir(dir string) ([]string, error) { return f.base.ReadDir(dir) }
func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.base.MkdirAll(dir, perm)
}

type faultFile struct {
	fs *FS
	f  wal.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return 0, ErrPowerCut
	}
	allow := int64(len(p))
	short := false
	if fs.shortWrite >= 0 {
		if fs.shortWrite < allow {
			allow = fs.shortWrite
			short = true
		}
		fs.shortWrite = -1
	}
	cutting := false
	if fs.writeBudget >= 0 {
		if allow >= fs.writeBudget {
			allow = fs.writeBudget
			cutting = true
			fs.cut = true
		}
		fs.writeBudget -= allow
	}
	fs.bytesWritten += allow
	fs.mu.Unlock()

	n, err := ff.f.Write(p[:allow])
	if err != nil {
		return n, err
	}
	if cutting {
		return n, ErrPowerCut
	}
	if short {
		return n, errors.New("faultfs: simulated short write")
	}
	return n, nil
}

func (ff *faultFile) Sync() error {
	fs := ff.fs
	fs.mu.Lock()
	if fs.cut {
		fs.mu.Unlock()
		return ErrPowerCut
	}
	serr := fs.syncErr
	if serr == nil {
		fs.syncs++
	}
	fs.mu.Unlock()
	if serr != nil {
		return serr
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
