package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Fsync policies: when an appended record is forced to stable storage.
type Policy int

const (
	// FsyncInterval batches appends in memory and group-commits them —
	// one write plus one fsync per shard — every Options.Interval. An
	// append returns immediately; a crash loses at most the last interval.
	// This is the default: it keeps the append hot path syscall-free.
	FsyncInterval Policy = iota
	// FsyncAlways makes Commit wait until the record is fsynced. Appends
	// that arrive while a flush is in flight join the next group commit,
	// so one fsync acknowledges every writer that boarded the batch.
	FsyncAlways
	// FsyncNone writes to the OS on the flush interval but never fsyncs
	// (except on Close/Sync); durability is whatever the kernel provides.
	FsyncNone
)

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps the CLI spelling of a policy to its value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or none)", s)
}

// DefaultInterval is the group-commit window when Options.Interval is 0.
const DefaultInterval = 2 * time.Millisecond

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// Shards is the number of independent append streams; callers map
	// their lock shards onto them so appends from different shards never
	// contend on one file.
	Shards int
	// Policy selects the fsync policy (default FsyncInterval).
	Policy Policy
	// Interval is the group-commit window for FsyncInterval and the write
	// window for FsyncNone (default DefaultInterval).
	Interval time.Duration
	// FS is the filesystem seam (default OSFS).
	FS FS
	// StartLSN seeds the sequence counter: the first staged record gets
	// StartLSN+1. Recovery passes the highest LSN it replayed so fresh
	// records always sort after everything already on disk.
	StartLSN uint64
}

// Log is a per-shard write-ahead log. Appends are two-phase: Stage encodes
// records into the owning shard's buffer (callers do this while holding the
// lock that orders the state change), Commit waits for the configured
// durability after that lock is released, so an fsync never executes inside
// anyone's shard critical section and concurrent writers share flushes.
//
// A write or fsync failure is sticky: the log stops accepting appends and
// reports the error from every later Stage, Commit, Sync, and Close —
// durability is never silently degraded.
type Log struct {
	fs       FS
	dir      string
	policy   Policy
	interval time.Duration

	lsn     atomic.Uint64 // last assigned sequence number
	records atomic.Int64  // sum of every shard file's records
	bytes   atomic.Int64  // sum of every shard file's bytes

	files []*shardFile

	stop     chan struct{} // closes the background flusher
	flushxit chan struct{} // flusher exited
	closed   atomic.Bool
}

// commitBatch is one group commit: every Stage that lands in the buffer
// while the previous flush is on the disk shares the next one.
type commitBatch struct {
	done chan struct{}
	err  error
}

type shardFile struct {
	mu       sync.Mutex
	f        File
	path     string
	buf      []byte // staged, not yet written
	spare    []byte // recycled flush buffer, and Rewrite's encode buffer
	staged   uint64 // highest LSN staged into buf
	durable  uint64 // highest LSN known flushed+synced (FsyncAlways)
	records  int64  // records this Log staged or rewrote into the file
	bytes    int64  // their encoded size
	cur      *commitBatch
	flushing bool
	err      error // sticky failure

	// inflight counts writeSync calls running with mu released; idle is
	// broadcast when it returns to zero. Rewrite waits on it before swapping
	// the file handle — closing a handle another goroutine is writing
	// through would turn a clean compaction into a sticky failure.
	inflight int
	idle     *sync.Cond
}

// FileName returns the log file name for a shard index.
func FileName(shard int) string { return fmt.Sprintf("wal-%04d.log", shard) }

// Open creates or opens the log files for opts.Shards shards under
// opts.Dir. Existing files are appended to; run recovery (ScanDir) first if
// their contents matter.
func Open(opts Options) (*Log, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("wal: open: %d shards", opts.Shards)
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{
		fs:       opts.FS,
		dir:      opts.Dir,
		policy:   opts.Policy,
		interval: opts.Interval,
		files:    make([]*shardFile, opts.Shards),
		stop:     make(chan struct{}),
		flushxit: make(chan struct{}),
	}
	l.lsn.Store(opts.StartLSN)
	for i := range l.files {
		path := filepath.Join(opts.Dir, FileName(i))
		f, err := opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			for _, sf := range l.files[:i] {
				sf.f.Close()
			}
			return nil, fmt.Errorf("wal: open %s: %w", path, err)
		}
		sf := &shardFile{f: f, path: path}
		sf.idle = sync.NewCond(&sf.mu)
		l.files[i] = sf
	}
	if l.policy == FsyncAlways {
		close(l.flushxit) // no background flusher to wait for
	} else {
		go l.flushLoop()
	}
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the configured fsync policy.
func (l *Log) Policy() Policy { return l.policy }

// Records returns the number of records this Log has put into the current
// shard files — staged since Open, or written by a shard's last Rewrite plus
// what was staged after it. It is the numerator of the compaction ratio, and
// exact under concurrent Stage and Rewrite calls: each shard file keeps its
// own count and a rewrite adjusts the total by that one file's delta.
func (l *Log) Records() int64 { return l.records.Load() }

// Bytes returns the encoded size of the records Records counts.
func (l *Log) Bytes() int64 { return l.bytes.Load() }

// Err returns the sticky failure, if any shard's append stream has one.
func (l *Log) Err() error {
	for _, sf := range l.files {
		sf.mu.Lock()
		err := sf.err
		sf.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stage encodes recs into shard's buffer, assigning consecutive LSNs, and
// returns the last one as the commit token. Callers invoke it while holding
// the lock that serializes the corresponding state change, so buffer order
// matches state order; the encode is a memcpy, no syscall. A zero token
// means nothing was staged (empty recs or sticky failure).
func (l *Log) Stage(shard int, recs ...Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	sf := l.files[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.err != nil {
		return 0
	}
	before := len(sf.buf)
	for i := range recs {
		recs[i].LSN = l.lsn.Add(1)
		sf.buf = appendRecord(sf.buf, recs[i])
	}
	sf.account(l, sf.records+int64(len(recs)), sf.bytes+int64(len(sf.buf)-before))
	sf.staged = recs[len(recs)-1].LSN
	return sf.staged
}

// account sets the file's record and byte counts and moves the log's totals
// by the difference. The caller holds sf.mu.
func (sf *shardFile) account(l *Log, records, bytes int64) {
	l.records.Add(records - sf.records)
	l.bytes.Add(bytes - sf.bytes)
	sf.records, sf.bytes = records, bytes
}

// Commit makes the records staged up to token durable per the policy:
// FsyncAlways joins the shard's group commit and returns once an fsync
// covers the token; FsyncInterval and FsyncNone return immediately (the
// background flusher owns durability). A zero token is a no-op.
func (l *Log) Commit(shard int, token uint64) error {
	if token == 0 {
		return nil
	}
	sf := l.files[shard]
	if l.policy != FsyncAlways {
		sf.mu.Lock()
		err := sf.err
		sf.mu.Unlock()
		return err
	}
	sf.mu.Lock()
	if sf.err != nil {
		err := sf.err
		sf.mu.Unlock()
		return err
	}
	if sf.durable >= token {
		sf.mu.Unlock()
		return nil
	}
	b := sf.cur
	if b == nil {
		b = &commitBatch{done: make(chan struct{})}
		sf.cur = b
	}
	if sf.flushing {
		// A leader is on the disk; our batch flushes when it loops.
		sf.mu.Unlock()
		<-b.done
		return b.err
	}
	// Become the leader: flush batches until the buffer drains. Writers
	// that stage while we are in writeSync join sf.cur and are committed by
	// the next loop iteration — the group commit.
	sf.flushing = true
	for sf.cur != nil {
		cb := sf.cur
		sf.cur = nil
		if sf.err != nil {
			cb.err = sf.err
			close(cb.done)
			continue
		}
		data := sf.buf
		upto := sf.staged
		f := sf.f
		sf.buf = sf.spare[:0]
		sf.spare = nil
		sf.inflight++
		sf.mu.Unlock()
		err := writeSync(f, data, true)
		sf.mu.Lock()
		if sf.inflight--; sf.inflight == 0 {
			sf.idle.Broadcast()
		}
		sf.spare = data[:0]
		if err != nil {
			sf.err = err
		} else if upto > sf.durable {
			sf.durable = upto
		}
		cb.err = err
		close(cb.done)
	}
	sf.flushing = false
	sf.mu.Unlock()
	return b.err
}

// Append is Stage followed by Commit, for callers with no lock to split
// them around.
func (l *Log) Append(shard int, recs ...Record) error {
	token := l.Stage(shard, recs...)
	if token == 0 && len(recs) > 0 {
		// Stage refused: surface the sticky failure instead of acking.
		sf := l.files[shard]
		sf.mu.Lock()
		err := sf.err
		sf.mu.Unlock()
		return err
	}
	return l.Commit(shard, token)
}

// writeSync writes data fully and optionally fsyncs.
func writeSync(f File, data []byte, sync bool) error {
	for len(data) > 0 {
		n, err := f.Write(data)
		if err != nil {
			return err
		}
		data = data[n:]
	}
	if sync {
		return f.Sync()
	}
	return nil
}

// flushLoop is the background group-committer for FsyncInterval/FsyncNone.
func (l *Log) flushLoop() {
	defer close(l.flushxit)
	tick := time.NewTicker(l.interval)
	defer tick.Stop()
	sync := l.policy == FsyncInterval
	for {
		select {
		case <-tick.C:
			for _, sf := range l.files {
				sf.flush(sync)
			}
		case <-l.stop:
			return
		}
	}
}

// flush writes the shard's staged buffer (and fsyncs when sync is set),
// recording any failure as sticky.
func (sf *shardFile) flush(sync bool) error {
	sf.mu.Lock()
	if sf.err != nil {
		err := sf.err
		sf.mu.Unlock()
		return err
	}
	if len(sf.buf) == 0 && !sync {
		sf.mu.Unlock()
		return nil
	}
	data := sf.buf
	upto := sf.staged
	f := sf.f
	sf.buf = sf.spare[:0]
	sf.spare = nil
	sf.inflight++
	sf.mu.Unlock()
	err := writeSync(f, data, sync)
	sf.mu.Lock()
	if sf.inflight--; sf.inflight == 0 {
		sf.idle.Broadcast()
	}
	sf.spare = data[:0]
	if err != nil {
		sf.err = err
	} else if sync && upto > sf.durable {
		sf.durable = upto
	}
	sf.mu.Unlock()
	return err
}

// Sync forces every shard's staged records to stable storage regardless of
// policy — the drain hook: a graceful shutdown calls it so the recovered
// state matches the final delivered state exactly.
func (l *Log) Sync() error {
	var first error
	for _, sf := range l.files {
		if err := sf.flush(true); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Rewrite replaces one shard's file with exactly recs, via a temp file, fsync
// and atomic rename — the checkpoint of a host whose full state lives in the
// log. The records get LSNs above everything staged so far, so they outrank
// whatever any file still says about their keys: shards rewrite independently
// and a crash between two leaves a mix of old and new files, each internally
// consistent, that replay merges per key. The caller must exclude Stage on
// this shard (it holds the lock Stage runs under; other shards keep staging);
// commits and flushes still in flight for earlier stages are waited out
// before the file handle is swapped. On failure the old file stands.
func (l *Log) Rewrite(shard int, recs []Record) error {
	sf := l.files[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	// Wait out any writeSync still running against the old handle: Stage is
	// excluded by the caller's contract, but a Commit whose records were
	// staged before the caller took its lock — or the background flusher —
	// may still be on the disk.
	for sf.inflight > 0 {
		sf.idle.Wait()
	}
	if sf.err != nil {
		return sf.err
	}
	if l.closed.Load() {
		return fmt.Errorf("wal: rewrite %s: log is closed", sf.path)
	}
	tmp := sf.path + ".tmp"
	buf := sf.spare[:0] // no flush is in flight to hold it
	for _, r := range recs {
		r.LSN = l.lsn.Add(1)
		buf = appendRecord(buf, r)
	}
	if cap(buf) <= 1<<20 { // as the server's flush buffer: one big checkpoint is not pinned
		sf.spare = buf[:0]
	}
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite %s: %w", sf.path, err)
	}
	if err := writeSync(f, buf, true); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite %s: %w", sf.path, err)
	}
	if err := f.Close(); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite %s: %w", sf.path, err)
	}
	if err := l.fs.Rename(tmp, sf.path); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite %s: %w", sf.path, err)
	}
	SyncDir(l.dir)
	// The new file is the shard's log: it covers whatever was staged and not
	// yet written, so that goes. Swap the append handle.
	sf.buf = sf.buf[:0]
	sf.account(l, int64(len(recs)), int64(len(buf)))
	nf, err := l.fs.OpenFile(sf.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		sf.err = fmt.Errorf("wal: rewrite reopen %s: %w", sf.path, err)
		return sf.err
	}
	sf.f.Close()
	sf.f = nf
	return nil
}

// Close flushes and fsyncs every shard, stops the background flusher, and
// closes the files. It returns the sticky failure, if any — the only place
// an FsyncInterval deployment learns its tail was never made durable.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return l.Err()
	}
	close(l.stop)
	<-l.flushxit
	err := l.Sync()
	for _, sf := range l.files {
		sf.mu.Lock()
		if cerr := sf.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		sf.mu.Unlock()
	}
	if err == nil {
		err = l.Err()
	}
	return err
}
