package apcache

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/engine"
	"apcache/internal/wal"
)

// FsyncPolicy selects when WAL appends reach stable storage; see the
// wal.Policy constants re-exported below.
type FsyncPolicy = wal.Policy

// Fsync policies for DurabilityOptions.Fsync.
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

// ParseFsyncPolicy maps "always" / "interval" / "none" to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// WALFS is the filesystem seam the durable backend runs every disk
// operation through — appends, checkpoint rewrites, renames, truncations, and
// recovery reads. Production uses the real filesystem; crash-fault tests
// substitute an injector.
type WALFS = wal.FS

// DurabilityOptions parameterizes a write-ahead durable store
// (Options.Durability + OpenDurable).
type DurabilityOptions struct {
	// Fsync is the append durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the group-commit window for FsyncInterval/FsyncNone
	// (default 2ms).
	FsyncInterval time.Duration
	// CompactMin is the minimum number of log records before background
	// compaction considers rewriting the log to the live state (default
	// 1024).
	CompactMin int
	// CompactRatio triggers compaction once the log holds more than
	// CompactRatio records per live key (default 4). Both thresholds must
	// pass: a tiny store is not checkpointed every handful of writes, and a
	// huge one is not allowed to grow an unbounded replay tail.
	CompactRatio float64
	// FS overrides the filesystem (fault-injection tests).
	FS WALFS
}

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

// OpenDurable opens (or creates) a write-ahead durable store rooted at dir.
//
// Recovery is the engine's, the same as the networked server's: the per-shard
// log files are read — a torn or corrupted tail is truncated, not rejected,
// so a power cut mid-append costs at most the records that were never
// acknowledged durable — and folded to the last value and learned width per
// key; every recovered key is then re-subscribed at its learned width and its
// interval cached. The recovered state is rewritten into fresh log files
// before the store accepts writes, which makes recovery idempotent and
// absorbs shard-count changes between runs.
//
// What a durable store recovers is therefore values and widths. Its cache is
// re-seeded at the learned widths (up to CacheSize), its refresh counters
// restart at zero, and its algorithm parameters come from opts.Params — use
// Save/Load for a full-fidelity export of cached intervals, counters and
// parameters.
//
// opts.Durability carries the tuning (fsync policy, compaction thresholds,
// filesystem seam); a nil Durability gets defaults. A directory written by a
// release that kept snap-*.gob checkpoint files still opens: the newest
// snapshot that validates is the base the log's later records fold over, and
// the snapshot files are deleted once the first log rewrite has landed.
func OpenDurable(dir string, opts Options) (*Store, error) {
	var d DurabilityOptions
	if opts.Durability != nil {
		d = *opts.Durability
	}
	if d.FS == nil {
		d.FS = wal.OSFS
	}
	snaps, base, gate, err := legacySnapshots(d.FS, dir)
	if err != nil {
		return nil, err
	}
	s, err := NewStore(opts)
	if err != nil {
		return nil, err
	}
	err = s.eng.Attach(engine.Journal{
		Log:          wal.Options{Dir: dir, Policy: d.Fsync, Interval: d.FsyncInterval, FS: d.FS},
		CompactMin:   d.CompactMin,
		CompactRatio: d.CompactRatio,
		Base:         base,
		Gate:         gate,
	})
	if err != nil {
		return nil, fmt.Errorf("apcache: open durable: %w", err)
	}
	// Ascending key order, so a bounded cache admits the same keys every time.
	var keys []int
	for _, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		keys = keys[:0]
		sh.Src.ForEach(func(k int, _ float64) { keys = append(keys, k) })
		slices.Sort(keys)
		for _, k := range keys {
			r := sh.Src.Subscribe(storeCacheID, k)
			sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
		}
		sh.Mu.Unlock()
	}
	// The rewritten records outrank every snapshot's gate, so each
	// intermediate state of this removal — oldest first — recovers the same.
	for _, name := range snaps {
		d.FS.Remove(filepath.Join(dir, name))
	}
	return s, nil
}

// legacySnapshots reads what a directory's snap-*.gob files — the checkpoint
// format before the per-shard log rewrite — contribute to recovery: the state
// of the newest one that decodes and validates (nil if none) and its LSN, the
// gate at or below which the log's records are already in that state. Older
// snapshots are fallbacks: a corrupt newer file is skipped, not fatal. A
// snapshot from a newer format version is a hard typed error — falling back
// to an older file would silently discard acked state. files lists every
// snapshot file, oldest first.
func legacySnapshots(fsys wal.FS, dir string) (files []string, base map[int]engine.KeyState, gate uint64, err error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("apcache: open durable: %w", err)
	}
	for _, name := range names { // sorted, and the sequence is zero-padded
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".gob") {
			files = append(files, name)
		}
	}
	for i := len(files) - 1; i >= 0; i-- {
		data, err := fsys.ReadFile(filepath.Join(dir, files[i]))
		if err != nil {
			continue
		}
		var snap snapshot
		if err := decodeSnap(bytes.NewReader(data), &snap); err != nil {
			continue
		}
		if err := checkSnapshot(&snap); err != nil {
			if errors.Is(err, aperrs.ErrSnapshotVersion) {
				return nil, nil, 0, err
			}
			continue
		}
		base = make(map[int]engine.KeyState, len(snap.Keys))
		for _, ks := range snap.Keys {
			base[ks.Key] = engine.KeyState{Value: ks.Value, Width: ks.Width, HasValue: true}
		}
		return files, base, snap.LSN, nil
	}
	return files, nil, 0, nil
}
