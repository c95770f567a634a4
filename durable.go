package apcache

import (
	"apcache/internal/wal"
)

// FsyncPolicy selects when WAL appends reach stable storage; see the
// wal.Policy constants re-exported below.
type FsyncPolicy = wal.Policy

// Fsync policies for Options.WALFsync (and ServerConfig.WALFsync).
const (
	// FsyncInterval (the default) group-commits every flush interval: the
	// write path stays syscall-free and a crash loses at most the last
	// interval of appends.
	FsyncInterval = wal.FsyncInterval
	// FsyncAlways makes every write wait for an fsync covering it;
	// concurrent writers on a shard share one group commit.
	FsyncAlways = wal.FsyncAlways
	// FsyncNone hands the appends to the OS on the flush interval and
	// never fsyncs until Close; durability is whatever the kernel gives.
	FsyncNone = wal.FsyncNone
)

// WALFS is the filesystem seam the durable backend runs every disk
// operation through — appends, checkpoint rewrites, renames, truncations, and
// recovery reads. Production uses the real filesystem; crash-fault tests
// substitute an injector.
type WALFS = wal.FS

// Sync forces every buffered WAL append to stable storage regardless of the
// fsync policy, returning the log's sticky failure if durability has broken.
// A no-op nil on a non-durable store.
func (s *Store) Sync() error { return s.eng.Sync() }

// Close stops the background compactor and flushes, fsyncs, and closes the
// WAL. The store itself remains usable in memory afterwards, but writes are
// no longer journaled. A no-op nil on a non-durable store; idempotent. The
// returned error is the log's sticky failure, if durability ever broke —
// the one place an FsyncInterval deployment learns its tail never landed.
func (s *Store) Close() error { return s.eng.Close() }

// Width returns the learned interval width for a tracked key — the one
// piece of adaptive state the algorithm keeps per key, and exactly what the
// WAL exists to preserve across crashes. ok is false for unknown keys.
func (s *Store) Width(key int) (width float64, ok bool) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	p, ok := sh.Src.PolicyFor(storeCacheID, key)
	if !ok {
		return 0, false
	}
	return p.Width(), true
}

// Compact checkpoints the store now instead of waiting for the background
// compactor: the engine rewrites each shard's log file to the shard's live
// values and learned widths, one shard lock at a time. A crash at any point
// recovers the same state. An error on a non-durable (or closed) store.
func (s *Store) Compact() error { return s.eng.Checkpoint() }
