package engine

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"apcache/internal/wal"
)

// Compaction thresholds when Journal leaves them zero: a checkpoint is due
// once the journal holds more than DefaultCompactRatio records per hosted key,
// but never before DefaultCompactMin records — a small host is not
// checkpointed every handful of updates, a large one grows no unbounded tail.
const (
	DefaultCompactMin   = 1024
	DefaultCompactRatio = 4
)

// Journal parameterizes Attach.
type Journal struct {
	// Log names the write-ahead log: Dir, Policy, Interval and FS. Shards and
	// StartLSN are filled in by the engine.
	Log wal.Options
	// CompactMin and CompactRatio override the compaction thresholds.
	CompactMin   int
	CompactRatio float64
	// Broken, when non-nil, hears the first broken-durability error (later
	// ones are the same sticky failure). The engine keeps serving from
	// memory; Sync and Close surface the failure.
	Broken func(error)
}

// journal is the engine's durable half: the log, the compaction trigger and
// the compactor goroutine's lifetime.
type journal struct {
	Journal
	log        *wal.Log
	brokenOnce sync.Once

	kick chan struct{} // nudges the compactor; one slot, lossy
	stop chan struct{}
	done chan struct{}

	closed    atomic.Bool // set before the log closes so late writers skip staging
	closeOnce sync.Once
	closeErr  error
}

// Attach recovers the journal under cfg.Log.Dir into an engine that is not
// serving yet, opens it for appending and starts the compactor. Recovery is
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
	j := &journal{
		Journal: cfg,
		log:     log,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, sh := range e.shards {
		sh.keys.Store(int64(sh.Src.Keys()))
	}
	e.j = j
	if err := e.Checkpoint(); err != nil {
		e.j = nil
		log.Close()
		return err
	}
	// Shard files are named by zero-padded index, so every file of a layout
	// larger than this one sorts at or after the first index it lacks.
	end := wal.FileName(len(e.shards))
	if names, err := fsys.ReadDir(dir); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") || wal.IsLogName(name) && name >= end {
				fsys.Remove(filepath.Join(dir, name))
			}
		}
	}
	go e.compactLoop(j)
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

// Log returns the write-ahead log (its record count is the compaction
// trigger's numerator), nil on an in-memory engine.
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

// stage appends recs to the shard's log buffer under the caller's shard lock
// (buffer order = state order). The log refuses only after a sticky failure.
func (j *journal) stage(shard int, recs ...wal.Record) uint64 {
	tok := j.log.Stage(shard, recs...)
	if tok == 0 {
		j.note(nil)
	}
	return tok
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
// up to tok, then nudges the compactor if a checkpoint is due. Called after
// the shard lock is released, it keeps the fsync out of every critical section
// and lets concurrent writers share one group commit. Failures are sticky
// inside the log; memory stays correct, so the write path never fails.
func (e *Engine[H]) Commit(sh *Shard[H], tok uint64) {
	j := e.live()
	if j == nil || tok == 0 {
		return
	}
	if err := j.log.Commit(sh.Idx, tok); err != nil {
		j.note(err)
	}
	// The key-count sum only runs once the cheap record floor has passed.
	rec := j.log.Records()
	if rec <= int64(j.CompactMin) {
		return
	}
	var keys int64
	for _, s := range e.shards {
		keys += s.keys.Load()
	}
	if rec <= int64(j.CompactRatio*float64(keys)) {
		return
	}
	select {
	case j.kick <- struct{}{}:
	default:
	}
}

// compactLoop is the one background compactor: every kick runs a checkpoint.
func (e *Engine[H]) compactLoop(j *journal) {
	defer close(j.done)
	for {
		select {
		case <-j.stop:
			return
		case <-j.kick:
			if err := e.Checkpoint(); err != nil {
				j.note(err)
			}
		}
	}
}

// Sync forces every staged record to stable storage regardless of the fsync
// policy and returns the log's sticky failure, if any. Nil without a journal.
func (e *Engine[H]) Sync() error {
	if e.j == nil {
		return nil
	}
	return e.j.log.Sync()
}

// Close stops the compactor and flushes, fsyncs and closes the log; the
// engine stays usable in memory but journals nothing from then on.
// Idempotent; nil without a journal. The error is the log's sticky failure —
// the one place an interval-fsync deployment learns its tail never landed.
func (e *Engine[H]) Close() error {
	j := e.j
	if j == nil {
		return nil
	}
	j.closeOnce.Do(func() {
		j.closed.Store(true)
		close(j.stop)
		<-j.done
		j.closeErr = j.log.Close()
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
// hosted value plus its last journaled width — for Checkpoint. The caller
// holds the shard's lock.
func (sh *Shard[H]) state() []wal.Record {
	recs := make([]wal.Record, 0, 2*sh.Src.Keys())
	sh.Src.ForEach(func(key int, v float64) {
		recs = append(recs, wal.Record{Op: wal.OpValue, Key: int64(key), Val: v})
		if w := sh.widths[key]; w > 0 {
			recs = append(recs, wal.Record{Op: wal.OpWidth, Key: int64(key), Val: w})
		}
	})
	return recs
}
