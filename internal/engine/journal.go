package engine

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"apcache/internal/wal"
)

// Compaction thresholds when Journal leaves them zero (see CompactMin): a small
// host is not compacted every handful of updates, a large one grows no
// unbounded tail.
const (
	DefaultCompactMin   = 1024
	DefaultCompactRatio = 4
)

// Journal parameterizes Attach.
type Journal struct {
	// Log names the write-ahead log: Dir, Policy, Interval and FS. Shards and
	// StartLSN are filled in by the engine.
	Log wal.Options
	// CompactMin and CompactRatio override the compaction thresholds: a
	// shard's file is rewritten once it holds more than
	// max(⌈CompactMin/shards⌉, CompactRatio × the shard's keys) records.
	CompactMin   int
	CompactRatio float64
	// Broken, when non-nil, hears the first broken-durability error (later
	// ones are the same sticky failure). The engine keeps serving from
	// memory; Sync and Close surface the failure.
	Broken func(error)
}

// journal is the engine's durable half: the log and its per-file
// compaction threshold. It runs no goroutine of its own.
type journal struct {
	Journal
	log        *wal.Log
	fileMin    int64 // ⌈CompactMin/shards⌉, the floor of every file's threshold
	brokenOnce sync.Once

	closed    atomic.Bool // set before the log closes so late writers skip staging
	closeOnce sync.Once
	closeErr  error
}

// Attach recovers the journal under cfg.Log.Dir into an engine that is not
// serving yet and opens it for appending; it starts no goroutine. Recovery is
// the same for every host: read the shard files — truncating, never rejecting,
// a torn or corrupted tail — fold the records to the last value and width per
// key, and install them (restore). The first checkpoint runs before Attach
// returns, which makes recovery idempotent and absorbs shard-count changes:
// the log opens above every recovered LSN, so the old files recover until
// their rewrite lands and are superseded after. Only then are files of a
// larger shard layout and abandoned temp files removed. The host installs its
// far side of the recovered keys afterwards, from Src.
func (e *Engine[H]) Attach(cfg Journal) error {
	cfg.Log.Shards = len(e.shards)
	if cfg.Log.FS == nil {
		cfg.Log.FS = wal.OSFS
	}
	if cfg.CompactMin <= 0 {
		cfg.CompactMin = DefaultCompactMin
	}
	if cfg.CompactRatio <= 0 {
		cfg.CompactRatio = DefaultCompactRatio
	}
	fsys, dir := cfg.Log.FS, cfg.Log.Dir
	scan, err := wal.ScanDir(fsys, dir) // a missing directory is an empty log; Open creates it
	if err != nil {
		return err
	}
	e.restore(Fold(scan.Records))
	cfg.Log.StartLSN = scan.MaxLSN
	log, err := wal.Open(cfg.Log)
	if err != nil {
		return err
	}
	shards := cfg.Log.Shards
	e.j = &journal{Journal: cfg, log: log, fileMin: int64((cfg.CompactMin + shards - 1) / shards)}
	if err := e.Checkpoint(); err != nil {
		e.j = nil
		log.Close()
		return err
	}
	// Shard files are named by zero-padded index, so every file of a layout
	// larger than this one sorts at or after the first index it lacks.
	end := wal.FileName(shards)
	if names, err := fsys.ReadDir(dir); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") || wal.IsLogName(name) && name >= end {
				fsys.Remove(filepath.Join(dir, name))
			}
		}
	}
	return nil
}

// Checkpoint folds the journal back to the live state, the one way every host
// does it: each shard in turn, under that shard's lock only, has its log file
// rewritten to its hosted values and learned widths (wal.Log.Rewrite: temp
// file, fsync, atomic rename). No global quiescent point is needed — a key
// lives in exactly one shard file and rewritten records carry LSNs above
// everything on disk, so a crash between two shards, or writers busy on every
// other shard, leave files that replay merges per key with the newest record
// winning. Concurrent checkpoints serialize shard by shard and are harmless;
// one that meets a closed log fails without touching the files.
//
// Shards go in descending order for the one checkpoint that moves keys
// between files, the first after a shard-count change: shard indices are the
// low bits of one hash, so under a larger count a key moves only to a
// higher-numbered file — rewritten before the file that drops it — and under
// a smaller count only out of files this layout no longer has, which Attach
// removes after the whole checkpoint has landed.
func (e *Engine[H]) Checkpoint() error {
	j := e.j
	if j == nil {
		return errors.New("engine: checkpoint: no journal attached")
	}
	var first error
	for i := len(e.shards) - 1; i >= 0; i-- {
		sh := e.shards[i]
		sh.Mu.Lock()
		err := j.log.Rewrite(i, sh.state())
		sh.Mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Log returns the write-ahead log, nil on an in-memory engine.
func (e *Engine[H]) Log() *wal.Log {
	if e.j == nil {
		return nil
	}
	return e.j.log
}

// live returns the journal while it accepts records: nil on an in-memory
// engine and once Close has begun.
func (e *Engine[H]) live() *journal {
	if j := e.j; j != nil && !j.closed.Load() {
		return j
	}
	return nil
}

// note reports broken durability once; a nil err stands for the log's sticky
// failure.
func (j *journal) note(err error) {
	j.brokenOnce.Do(func() {
		if err == nil {
			err = j.log.Err()
		}
		if j.Broken != nil && err != nil {
			j.Broken(err)
		}
	})
}

// Commit waits for the durability the fsync policy promises the records staged
// up to tok, after the shard lock is released: no fsync runs in a critical
// section, and concurrent writers share one group commit. If Set marked the
// shard's file overfull, Commit then locks the shard again, judges the file
// again and rewrites it alone, so it is within its threshold when Commit
// returns. Failures are sticky inside the log; the write path never fails.
func (e *Engine[H]) Commit(sh *Shard[H], tok uint64) {
	j := e.live()
	if j == nil || tok == 0 {
		return
	}
	if err := j.log.Commit(sh.Idx, tok); err != nil {
		j.note(err)
	}
	if !sh.full.Load() {
		return
	}
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	if e.live() != nil && j.over(sh.Idx, sh.Src.Keys()) { // Close may have begun
		if err := j.log.Rewrite(sh.Idx, sh.state()); err != nil {
			j.note(err)
		}
	}
	sh.full.Store(false)
}

// over reports whether a shard's log file holds more than its threshold:
// fileMin records, and more than CompactRatio per key the shard hosts. The
// caller holds the shard's lock.
func (j *journal) over(shard, keys int) bool {
	n := j.log.ShardRecords(shard)
	return n > j.fileMin && float64(n) > j.CompactRatio*float64(keys)
}

// Sync forces every staged record to stable storage regardless of the fsync
// policy and returns the log's sticky failure, if any. Nil without a journal.
func (e *Engine[H]) Sync() error {
	if e.j == nil {
		return nil
	}
	return e.j.log.Sync()
}

// Close checkpoints (a clean stop keeps every learned width) and flushes,
// fsyncs and closes the log; the engine stays usable in memory but journals
// nothing from then on, and a Commit's rewrite lands before the log closes or
// skips. Idempotent; nil without a journal. The error is the first failure —
// the one place an interval-fsync deployment learns its tail never landed.
func (e *Engine[H]) Close() error {
	j := e.j
	if j == nil {
		return nil
	}
	j.closeOnce.Do(func() {
		j.closed.Store(true)
		j.closeErr = e.Checkpoint()
		if err := j.log.Close(); j.closeErr == nil {
			j.closeErr = err
		}
	})
	return j.closeErr
}

// KeyState is what the journal says about one key.
type KeyState struct {
	// Value is the last OpValue, meaningful when HasValue; Width the last
	// OpWidth, 0 when none survived.
	Value, Width float64
	HasValue     bool
}

// Fold reduces journal records, in LSN order, to the last state per key. A key
// is restorable exactly when a value survives.
func Fold(recs []wal.Record) map[int]KeyState {
	keys := make(map[int]KeyState)
	for _, r := range recs {
		k := int(r.Key)
		st := keys[k]
		if r.Op == wal.OpValue {
			st.Value, st.HasValue = r.Val, true
		} else {
			st.Width = r.Val // OpWidth: decoding admits no other op
		}
		keys[k] = st
	}
	return keys
}

// restore installs folded journal state into an engine that is not serving
// yet: every surviving value, and its learned width into the table new
// subscriptions warm-start from. A width whose value fell into a truncated
// tail is dropped.
func (e *Engine[H]) restore(keys map[int]KeyState) {
	for k, st := range keys {
		if !st.HasValue {
			continue
		}
		sh := e.For(k)
		sh.Src.SetInitial(k, st.Value)
		if st.Width > 0 {
			sh.widths[k] = st.Width
		}
	}
}

// state returns the records that reproduce the shard's live state — each
// hosted value plus its learned width — for Checkpoint, in the shard's
// scratch. The caller holds the shard's lock.
func (sh *Shard[H]) state() []wal.Record {
	recs := sh.recs[:0]
	sh.Src.ForEach(func(key int, v float64) {
		recs = append(recs, wal.Record{Op: wal.OpValue, Key: int64(key), Val: v})
		if w := sh.widths[key]; w > 0 {
			recs = append(recs, wal.Record{Op: wal.OpWidth, Key: int64(key), Val: w})
		}
	})
	if cap(recs) <= 1<<15 { // 1 MiB of records: a larger one would pin one checkpoint's size
		sh.recs = recs
	}
	return recs
}
