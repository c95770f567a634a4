package apcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
// operation through — appends, snapshot writes, renames, truncations, and
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
	// compaction considers folding the log into a snapshot (default 1024).
	CompactMin int
	// CompactRatio triggers compaction once the log holds more than
	// CompactRatio records per live key (default 4). Both thresholds must
	// pass: a tiny store is not snapshotted every handful of writes, and a
	// huge one is not allowed to grow an unbounded replay tail.
	CompactRatio float64
	// FS overrides the filesystem (fault-injection tests).
	FS WALFS
}

func (d DurabilityOptions) withDefaults() DurabilityOptions {
	if d.FsyncInterval <= 0 {
		d.FsyncInterval = wal.DefaultInterval
	}
	if d.FS == nil {
		d.FS = wal.OSFS
	}
	return d
}

// snapDir is where a durable store keeps its checkpoints.
type snapDir struct {
	fs  wal.FS
	dir string
	seq uint64 // sequence of the newest snapshot on disk; guarded by compactMu
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

// snapName formats a snapshot file name; the sequence grows monotonically so
// lexical order is recovery order.
func snapName(seq uint64) string { return fmt.Sprintf("snap-%012d.gob", seq) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".gob") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".gob"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// OpenDurable opens (or creates) a write-ahead durable store rooted at dir.
//
// Recovery loads the newest snapshot that decodes and validates, replays
// the WAL records above the snapshot's LSN in log order — so the store
// resumes with every acked value, learned width, and subscription — and
// truncates, rather than rejects, a torn or corrupted log tail: a power cut
// mid-append costs at most the records that were never acknowledged
// durable. The recovered state is then folded into a fresh snapshot and an
// empty log before the store accepts writes ("compaction on open"), which
// makes recovery idempotent and absorbs shard-count changes between runs.
//
// opts.Durability carries the tuning (fsync policy, compaction thresholds,
// filesystem seam); a nil Durability gets defaults. If a snapshot exists its
// algorithm parameters win over opts.Params, exactly as in LoadOptions.
func OpenDurable(dir string, opts Options) (*Store, error) {
	var d DurabilityOptions
	if opts.Durability != nil {
		d = *opts.Durability
	}
	d = d.withDefaults()
	fsys := d.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("apcache: open durable: %w", err)
	}

	snap, seq, err := newestSnapshot(fsys, dir)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		snap = &snapshot{Version: snapshotVersion, Params: opts.Params}
	}
	keys, maxLSN, err := engine.Scan(fsys, dir, snap.LSN)
	if err != nil {
		return nil, fmt.Errorf("apcache: open durable: %w", err)
	}
	overlay(snap, keys)
	if err := checkSnapshot(snap); err != nil {
		// Individually validated pieces cannot merge into invalid state;
		// this guards the invariant rather than an expected path.
		return nil, fmt.Errorf("apcache: open durable: merged state invalid: %w", err)
	}
	s, err := restoreSnapshot(snap, opts)
	if err != nil {
		return nil, err
	}
	s.snaps = &snapDir{fs: fsys, dir: dir, seq: seq}

	// Attach runs the first checkpoint (Compact) — compaction on open. Until
	// the new snapshot's rename lands the old snapshot + old log recover;
	// after it the old records sit at or below its LSN and the replay gate
	// skips them, so the log truncation needs no atomicity.
	err = s.eng.Attach(engine.Journal{
		Log: wal.Options{
			Dir:      dir,
			Policy:   d.Fsync,
			Interval: d.FsyncInterval,
			FS:       fsys,
			StartLSN: max(maxLSN, snap.LSN),
		},
		CompactMin:   d.CompactMin,
		CompactRatio: d.CompactRatio,
		Checkpoint:   s.Compact,
	})
	if err != nil {
		return nil, fmt.Errorf("apcache: open durable: %w", err)
	}
	return s, nil
}

// newestSnapshot returns the newest snapshot under dir that decodes and
// validates, with its sequence. Older snapshots are fallbacks: a corrupt
// newer file is skipped, not fatal (the kept-previous snapshot plus the log
// still recover). seq is the highest sequence seen on disk even among
// invalid files, so the next snapshot never reuses a name. A snapshot from
// a newer format version is a hard typed error — falling back to an older
// file would silently discard acked state.
func newestSnapshot(fsys wal.FS, dir string) (*snapshot, uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("apcache: open durable: %w", err)
	}
	type cand struct {
		seq  uint64
		name string
	}
	var cands []cand
	var maxSeq uint64
	for _, name := range names {
		if seq, ok := parseSnapName(name); ok {
			cands = append(cands, cand{seq, name})
			if seq > maxSeq {
				maxSeq = seq
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	for _, c := range cands {
		data, err := fsys.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			continue
		}
		var snap snapshot
		if err := decodeSnap(bytes.NewReader(data), &snap); err != nil {
			continue
		}
		if err := checkSnapshot(&snap); err != nil {
			if errors.Is(err, aperrs.ErrSnapshotVersion) {
				return nil, 0, err
			}
			continue
		}
		return &snap, maxSeq, nil
	}
	return nil, maxSeq, nil
}

// overlay applies the journal's fold (records above the snapshot's LSN) to
// a snapshot's key list. Values that escaped their snapshotted interval drop
// the cached entry — the interval would violate containment — but keep the
// key tracked with its learned width, so the next touch re-admits it at
// learned precision. A key without a surviving value cannot be restored: its
// OpValue fell into the truncated tail, or it was unsubscribed. overlay
// consumes keys.
func overlay(snap *snapshot, keys map[int]engine.KeyState) {
	if len(keys) == 0 {
		return
	}
	live := snap.Keys[:0]
	for _, ks := range snap.Keys {
		st, ok := keys[ks.Key]
		delete(keys, ks.Key)
		if ok && st.Dropped {
			continue
		}
		if st.HasValue {
			ks.Value = st.Value
			if ks.Cached && (st.Value < ks.Lo || st.Value > ks.Hi) {
				ks.Cached = false
				ks.Lo, ks.Hi, ks.OrigW = 0, 0, 0
			}
		}
		if st.Width > 0 {
			ks.Width = st.Width
		}
		live = append(live, ks)
	}
	for key, st := range keys {
		if st.HasValue {
			live = append(live, keySnapshot{Key: key, Value: st.Value, Width: st.Width})
		}
	}
	snap.Keys = live
	sort.Slice(snap.Keys, func(a, b int) bool { return snap.Keys[a].Key < snap.Keys[b].Key })
}

// writeSnapshotFS writes a snapshot crash-safely through the FS seam: temp
// file, full write, fsync, atomic rename, best-effort directory sync.
func writeSnapshotFS(fsys wal.FS, dir string, seq uint64, snap *snapshot) error {
	path := filepath.Join(dir, snapName(seq))
	tmp := path + ".tmp"
	var buf bytes.Buffer
	if err := encodeSnap(&buf, *snap); err != nil {
		return fmt.Errorf("apcache: snapshot %s: %w", path, err)
	}
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("apcache: snapshot %s: %w", path, err)
	}
	data := buf.Bytes()
	for len(data) > 0 {
		n, werr := f.Write(data)
		if werr != nil {
			f.Close()
			fsys.Remove(tmp)
			return fmt.Errorf("apcache: snapshot %s: %w", path, werr)
		}
		data = data[n:]
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("apcache: snapshot %s: sync: %w", path, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("apcache: snapshot %s: close: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("apcache: snapshot %s: %w", path, err)
	}
	wal.SyncDir(dir)
	return nil
}

// pruneSnapshots removes snapshots older than the previous one: the newest
// two are kept so a corrupt latest file (torn by a failing disk, not by a
// crash — the rename protocol rules that out) still leaves a fallback.
func pruneSnapshots(fsys wal.FS, dir string, newest uint64) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSnapName(name); ok && seq != newest {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs[min(1, len(seqs)):] {
		fsys.Remove(filepath.Join(dir, snapName(seq)))
	}
}

// Compact folds the WAL into a fresh snapshot and truncates it: the
// snapshot is captured and written under every shard lock (stop-the-world,
// like Save), renamed into place, and the log reset against it. A crash at
// any point recovers: before the rename the old snapshot + full log apply;
// after it the log's records are at or below the new snapshot's LSN and the
// replay gate skips them, truncated or not. A no-op error on a non-durable
// store.
func (s *Store) Compact() error {
	log := s.eng.Log()
	if log == nil {
		return fmt.Errorf("apcache: compact: store is not durable")
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	d := s.snaps
	// Stop the world: no Stage is in flight while the snapshot is captured
	// and the log truncated, so the snapshot's LSN covers exactly the
	// records being dropped.
	s.eng.LockAll()
	snap, err := s.captureLocked()
	if err == nil {
		if err = writeSnapshotFS(d.fs, d.dir, d.seq+1, &snap); err == nil {
			if err = log.Reset(d.seq + 1); err == nil {
				d.seq++
			}
		}
	}
	s.eng.UnlockAll()
	if err != nil {
		return err
	}
	pruneSnapshots(d.fs, d.dir, d.seq)
	return nil
}
