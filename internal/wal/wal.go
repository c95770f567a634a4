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
	// FsyncInterval batches appends in memory and group-commits them: the
	// first append into a shard's empty buffer opens a window of
	// Options.Interval, and its end writes and fsyncs everything staged in
	// it. An append returns immediately; a crash loses at most one window.
	// This is the default: it keeps the append hot path syscall-free, and
	// an idle log does no I/O.
	FsyncInterval Policy = iota
	// FsyncAlways makes Commit wait until the record is fsynced. Appends
	// that arrive while a write is in flight join the next group commit,
	// so one fsync acknowledges every writer that boarded the batch.
	FsyncAlways
	// FsyncNone writes to the OS at the end of each window, as
	// FsyncInterval, but never fsyncs (except on Close/Sync); durability is
	// whatever the kernel provides.
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
	// Interval is the window for FsyncInterval and FsyncNone: how long a
	// shard's first staged record waits, with whatever joins it, before it
	// is written (default DefaultInterval).
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

	lsn atomic.Uint64 // last assigned sequence number

	files  []*shardFile
	closed atomic.Bool
}

type shardFile struct {
	mu      sync.Mutex
	f       File
	path    string
	buf     []byte       // staged, not yet written
	spare   []byte       // recycled write buffer, and Rewrite's encode buffer
	staged  uint64       // highest LSN staged into buf
	durable uint64       // highest LSN known written and fsynced
	err     error        // sticky failure
	records atomic.Int64 // records this Log staged or rewrote into the file; read without mu
	bytes   atomic.Int64 // their encoded size

	// writing is set while write runs with mu released; idle is broadcast
	// when it clears. Every writer — a committer, the window, Sync, Rewrite
	// and Close — waits out the write in flight before starting its own, so
	// a Sync's fsync covers every record written before it, and a handle is
	// never swapped or closed under a write.
	writing bool
	idle    *sync.Cond

	// timer ends the window: created by the first window the file opens
	// and reset by each later one, under mu, and stopped by Close.
	timer *time.Timer
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
	return l, nil
}

// Records returns the number of records this Log has put into the current
// shard files — staged since Open, or written by a shard's last Rewrite plus
// what was staged after it — summed over the files when called.
func (l *Log) Records() (n int64) {
	for _, sf := range l.files {
		n += sf.records.Load()
	}
	return n
}

// ShardRecords returns the records Records counts in one shard's file.
func (l *Log) ShardRecords(shard int) int64 { return l.files[shard].records.Load() }

// Bytes returns the encoded size of the records Records counts.
func (l *Log) Bytes() (n int64) {
	for _, sf := range l.files {
		n += sf.bytes.Load()
	}
	return n
}

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
	sf.records.Add(int64(len(recs)))
	sf.bytes.Add(int64(len(sf.buf) - before))
	sf.staged = recs[len(recs)-1].LSN
	if before == 0 && l.policy != FsyncAlways {
		// These records open the window; later stages ride it. Reset moves
		// a deadline still pending from a window Sync or Rewrite emptied.
		if sf.timer == nil {
			sf.timer = time.AfterFunc(l.interval, func() { l.window(sf) })
		} else {
			sf.timer.Reset(l.interval)
		}
	}
	return sf.staged
}

// Commit makes the records staged up to token durable per the policy:
// FsyncAlways returns once an fsync covers the token, writing the buffer
// itself unless a write is already in flight — records staged during that
// write share the next fsync, the group commit. FsyncInterval and FsyncNone
// return at once (the window owns durability). A zero token is a no-op.
func (l *Log) Commit(shard int, token uint64) error {
	if token == 0 {
		return nil
	}
	sf := l.files[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	for l.policy == FsyncAlways && sf.durable < token && sf.err == nil {
		if sf.writing {
			sf.idle.Wait()
		} else {
			sf.write(true)
		}
	}
	return sf.err
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

// window ends a window: it writes the buffer, fsyncing under FsyncInterval.
// A fire that finds the buffer empty, the log closed or a sticky failure
// does nothing.
func (l *Log) window(sf *shardFile) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.settle() == nil && len(sf.buf) > 0 && !l.closed.Load() {
		sf.write(l.policy == FsyncInterval)
	}
}

// settle waits out the write in flight, if any, and returns the sticky
// failure. The caller holds sf.mu.
func (sf *shardFile) settle() error {
	for sf.writing {
		sf.idle.Wait()
	}
	return sf.err
}

// write writes the staged buffer, and fsyncs it when sync is set, with mu
// released around the syscalls; a failure becomes sticky. The caller holds
// sf.mu, with no write in flight.
func (sf *shardFile) write(sync bool) error {
	data, upto, f := sf.buf, sf.staged, sf.f
	sf.buf = sf.spare[:0]
	sf.spare = nil
	sf.writing = true
	sf.mu.Unlock()
	err := writeSync(f, data, sync)
	sf.mu.Lock()
	sf.writing = false
	sf.idle.Broadcast()
	sf.spare = data[:0]
	if err != nil {
		sf.err = err
	} else if sync && upto > sf.durable {
		sf.durable = upto
	}
	return err
}

// Sync forces every shard's staged records to stable storage regardless of
// policy — the drain hook: a graceful shutdown calls it so the recovered
// state matches the final delivered state exactly. It waits out a write in
// flight first, so its fsync covers every record staged before the call.
func (l *Log) Sync() error {
	var first error
	for _, sf := range l.files {
		sf.mu.Lock()
		err := sf.settle()
		if err == nil {
			err = sf.write(true)
		}
		sf.mu.Unlock()
		if err != nil && first == nil {
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
// a write still in flight for earlier stages is waited out before the file
// handle is swapped. A failure before the rename leaves the old file
// standing; a failed directory sync after it is sticky, since the rename may
// not survive a crash.
func (l *Log) Rewrite(shard int, recs []Record) error {
	sf := l.files[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	// Wait out a write still running against the old handle: Stage is
	// excluded by the caller's contract, but a Commit or a window whose
	// records were staged before the caller took its lock may still be on
	// the disk.
	if err := sf.settle(); err != nil {
		return err
	}
	if l.closed.Load() {
		return fmt.Errorf("wal: rewrite %s: log is closed", sf.path)
	}
	tmp := sf.path + ".tmp"
	buf := sf.spare[:0] // no write is in flight to hold it
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
	if err := l.fs.SyncDir(l.dir); err != nil {
		// The rename may not survive a crash, and the old file does not
		// hold what is staged: no Commit may acknowledge it, now or later.
		sf.err = fmt.Errorf("wal: rewrite %s: sync dir: %w", sf.path, err)
		return sf.err
	}
	// The new file is the shard's log, fsynced: it covers whatever was staged,
	// so the unwritten buffer goes and a Commit for any staged token has
	// nothing left to wait for. Swap the append handle.
	sf.buf = sf.buf[:0]
	sf.durable = sf.staged
	sf.records.Store(int64(len(recs)))
	sf.bytes.Store(int64(len(buf)))
	nf, err := l.fs.OpenFile(sf.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		sf.err = fmt.Errorf("wal: rewrite reopen %s: %w", sf.path, err)
		return sf.err
	}
	sf.f.Close()
	sf.f = nf
	return nil
}

// Close writes and fsyncs every shard, stops each shard's window timer,
// and closes the files; a window that fires later does nothing. It returns
// the sticky failure, if any — the only place an FsyncInterval deployment
// learns its tail was never made durable.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return l.Err()
	}
	err := l.Sync()
	for _, sf := range l.files {
		sf.mu.Lock()
		sf.settle()
		if sf.timer != nil {
			sf.timer.Stop()
		}
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
