package wal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"apcache/internal/faultfs"
	"apcache/internal/wal"
)

func openTest(t *testing.T, opts wal.Options) *wal.Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Shards == 0 {
		opts.Shards = 2
	}
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 3, Policy: wal.FsyncAlways})
	var want []wal.Record
	for i := 0; i < 50; i++ {
		r := wal.Record{Op: wal.OpValue, Key: int64(i), Val: float64(i) / 3}
		if i%5 == 0 {
			r = wal.Record{Op: wal.OpWidth, Key: int64(i), Val: float64(i)}
		}
		if err := l.Commit(i%3, l.Stage(i%3, r)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		r.LSN = uint64(i + 1) // one shared counter, assigned in Stage order
		want = append(want, r)
	}
	if got := l.Records(); got != 50 {
		t.Fatalf("Records() = %d, want 50", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(want))
	}
	for i, r := range res.Records {
		if r != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, r, want[i])
		}
	}
	if res.MaxLSN != want[len(want)-1].LSN {
		t.Fatalf("MaxLSN = %d, want %d", res.MaxLSN, want[len(want)-1].LSN)
	}
	if res.Truncated != 0 {
		t.Fatalf("Truncated = %d on a clean log", res.Truncated)
	}
}

func TestScanTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways})
	for i := 0; i < 10; i++ {
		if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpWidth, Key: int64(i), Val: float64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, wal.FileName(0))
	// Append garbage simulating a torn record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if res.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", res.Truncated)
	}
	if len(res.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(res.Records))
	}
	// The file was cut back to its valid prefix: a second scan is clean and
	// a reopened log appends from the clean boundary.
	l2 := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways, StartLSN: res.MaxLSN})
	if err := l2.Commit(0, l2.Stage(0, wal.Record{Op: wal.OpValue, Key: 77, Val: 7})); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Truncated != 0 {
		t.Fatalf("second scan Truncated = %d", res2.Truncated)
	}
	if len(res2.Records) != 11 || res2.Records[10].Key != 77 {
		t.Fatalf("post-truncation append lost: %d records", len(res2.Records))
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	ffs := faultfs.New(wal.OSFS)
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: int64(w*per + i), Val: 1})); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	syncs := ffs.Syncs()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(res.Records), writers*per)
	}
	// Concurrent commits board shared batches: far fewer fsyncs than appends.
	if syncs >= writers*per {
		t.Fatalf("%d fsyncs for %d appends: group commit not batching", syncs, writers*per)
	}
}

func TestIntervalPolicyFlushesInBackground(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncInterval, Interval: time.Millisecond})
	if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: 1, Val: 2})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := os.ReadFile(filepath.Join(dir, wal.FileName(0)))
		if len(data) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the window never wrote the record")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStickyFsyncError(t *testing.T) {
	ffs := faultfs.New(wal.OSFS)
	l := openTest(t, wal.Options{Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
	boom := errors.New("boom")
	ffs.FailSyncs(boom)
	if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: 1, Val: 1})); !errors.Is(err, boom) {
		t.Fatalf("append under failing fsync: %v", err)
	}
	ffs.FailSyncs(nil)
	// The failure is sticky: later stages refuse rather than silently
	// resuming with a hole in the log.
	if tok := l.Stage(0, wal.Record{Op: wal.OpValue, Key: 2, Val: 2}); tok != 0 {
		t.Fatalf("stage after sticky failure returned token %d, want 0", tok)
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v", err)
	}
}

func TestShortWriteRecoversPrefix(t *testing.T) {
	ffs := faultfs.New(wal.OSFS)
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
	for i := 0; i < 5; i++ {
		if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: int64(i), Val: 1})); err != nil {
			t.Fatal(err)
		}
	}
	ffs.ShortWriteOnce(3) // tear the next record mid-frame
	if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: 99, Val: 1})); err == nil {
		t.Fatal("torn append reported success")
	}
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", res.Truncated)
	}
	if len(res.Records) != 5 {
		t.Fatalf("recovered %d records, want the 5 acked ones", len(res.Records))
	}
	l.Close()
}

func TestPowerCutAtEveryOffset(t *testing.T) {
	// Establish the full run's byte length, then replay it with the power
	// cut at a sweep of offsets: every cut must recover exactly the acked
	// prefix, never an error, never a phantom record.
	run := func(budget int64) (acked int, dir string) {
		ffs := faultfs.New(wal.OSFS)
		if budget >= 0 {
			ffs.CutPowerAfter(budget)
		}
		dir = t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
		if err != nil {
			return 0, dir
		}
		for i := 0; i < 20; i++ {
			if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpWidth, Key: int64(i), Val: float64(i) + 0.5})); err != nil {
				break
			}
			acked++
		}
		l.Close()
		return acked, dir
	}
	_, full := run(-1)
	info, err := os.Stat(filepath.Join(full, wal.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	total := info.Size()
	for cut := int64(0); cut <= total; cut += 7 {
		acked, dir := run(cut)
		res, err := wal.ScanDir(wal.OSFS, dir)
		if err != nil {
			t.Fatalf("cut %d: scan: %v", cut, err)
		}
		if len(res.Records) < acked {
			t.Fatalf("cut %d: recovered %d records but %d were acked", cut, len(res.Records), acked)
		}
		for i, r := range res.Records {
			if r.Key != int64(i) {
				t.Fatalf("cut %d: record %d has key %d: not a prefix", cut, i, r.Key)
			}
		}
	}
}

// TestRewriteReplacesState rewrites one shard while another keeps staging:
// the rewritten file holds exactly the given records under fresh LSNs, the
// other shard's file and its share of Records() are untouched, and the
// swapped append handle keeps working.
func TestRewriteReplacesState(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 2, Policy: wal.FsyncAlways})
	for i := 0; i < 30; i++ {
		if err := l.Commit(i%2, l.Stage(i%2, wal.Record{Op: wal.OpValue, Key: int64(i % 2), Val: float64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	staged := make(chan struct{})
	go func() { // shard 1 is not excluded by a rewrite of shard 0
		defer close(staged)
		for i := 0; i < 100; i++ {
			l.Stage(1, wal.Record{Op: wal.OpWidth, Key: 1, Val: float64(i)})
		}
	}()
	err := l.Rewrite(0, []wal.Record{
		{Op: wal.OpValue, Key: 0, Val: 100},
		{Op: wal.OpWidth, Key: 0, Val: 0.25},
	})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	<-staged
	if got := l.Records(); got != 2+15+100 {
		t.Fatalf("Records() = %d after rewrite, want 117 (2 rewritten, shard 1's 115 kept)", got)
	}
	if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: 9, Val: 9})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 118 {
		t.Fatalf("recovered %d records, want 118", len(res.Records))
	}
	var shard0 []wal.Record
	for _, r := range res.Records {
		if r.Key != 1 {
			shard0 = append(shard0, r)
		}
	}
	if len(shard0) != 3 || shard0[0].Val != 100 || shard0[1].Op != wal.OpWidth || shard0[2].Key != 9 {
		t.Fatalf("shard 0 recovered as %+v", shard0)
	}
	if shard0[0].LSN <= 30 {
		t.Fatalf("rewritten record kept LSN %d; it must outrank the 30 records it replaces", shard0[0].LSN)
	}
}

func TestRewriteRenameFailureKeepsOldLog(t *testing.T) {
	ffs := faultfs.New(wal.OSFS)
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
	for i := 0; i < 5; i++ {
		if err := l.Commit(0, l.Stage(0, wal.Record{Op: wal.OpValue, Key: int64(i), Val: 1})); err != nil {
			t.Fatal(err)
		}
	}
	// Staged, not yet written: a failed rewrite must leave it to its Commit.
	tok := l.Stage(0, wal.Record{Op: wal.OpValue, Key: 5, Val: 1})
	boom := errors.New("rename blocked")
	ffs.FailRenames(boom)
	if err := l.Rewrite(0, nil); !errors.Is(err, boom) {
		t.Fatalf("rewrite under failing rename: %v", err)
	}
	if got := l.Records(); got != 6 {
		t.Fatalf("Records() = %d after a failed rewrite, want the old file's 6", got)
	}
	if err := l.Commit(0, tok); err != nil {
		t.Fatal(err)
	}
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("old log damaged by failed rewrite: %d records", len(res.Records))
	}
	names, _ := wal.OSFS.ReadDir(dir)
	for _, n := range names {
		if !wal.IsLogName(n) {
			t.Fatalf("temp file %s left behind", n)
		}
	}
	l.Close()
}

// TestRewriteMakesStagedDurable: a Rewrite's fsynced, renamed file holds
// every record staged before it, so an FsyncAlways Commit for one of them has
// nothing left to write and fsyncs nothing more. The rewrite's own fsync is
// the only one.
func TestRewriteMakesStagedDurable(t *testing.T) {
	ffs := faultfs.New(wal.OSFS)
	l := openTest(t, wal.Options{Dir: t.TempDir(), Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
	defer l.Close()
	tok := l.Stage(0, wal.Record{Op: wal.OpValue, Key: 1, Val: 1})
	if err := l.Rewrite(0, []wal.Record{{Op: wal.OpValue, Key: 1, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	before := ffs.Syncs()
	if err := l.Commit(0, tok); err != nil {
		t.Fatal(err)
	}
	if extra := ffs.Syncs() - before; extra != 0 {
		t.Fatalf("a Commit whose record the Rewrite covered ran %d more fsyncs, want 0", extra)
	}
}

// TestRewriteDirSyncFailureIsSticky: a Rewrite whose rename cannot be made
// durable must not acknowledge what was staged before it — the old file,
// which a crash may bring back, does not hold it. Both the Rewrite and the
// FsyncAlways Commit of the staged token fail, and the failure is sticky.
func TestRewriteDirSyncFailureIsSticky(t *testing.T) {
	ffs := faultfs.New(wal.OSFS)
	l := openTest(t, wal.Options{Dir: t.TempDir(), Shards: 1, Policy: wal.FsyncAlways, FS: ffs})
	tok := l.Stage(0, wal.Record{Op: wal.OpValue, Key: 1, Val: 1})
	boom := errors.New("directory sync failed")
	ffs.FailDirSyncs(boom)
	if err := l.Rewrite(0, []wal.Record{{Op: wal.OpValue, Key: 1, Val: 1}}); !errors.Is(err, boom) {
		t.Fatalf("rewrite under failing directory sync: %v", err)
	}
	ffs.FailDirSyncs(nil)
	if err := l.Commit(0, tok); !errors.Is(err, boom) {
		t.Fatalf("Commit of a record staged before the failed rewrite: %v, want the directory-sync failure", err)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v", err)
	}
}

func TestScanMergesShardCountChange(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 4, Policy: wal.FsyncAlways})
	for i := 0; i < 12; i++ {
		if err := l.Commit(i%4, l.Stage(i%4, wal.Record{Op: wal.OpValue, Key: int64(i), Val: float64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery reads all four files even if the next deployment uses one shard.
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 12 {
		t.Fatalf("recovered %d of 12 records across shard files", len(res.Records))
	}
	for i, r := range res.Records {
		if r.Key != int64(i) {
			t.Fatalf("LSN merge out of order at %d: key %d", i, r.Key)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]wal.Policy{
		"always": wal.FsyncAlways, "interval": wal.FsyncInterval, "none": wal.FsyncNone, "": wal.FsyncInterval,
	} {
		got, err := wal.ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := wal.ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestMissingDirScansEmpty(t *testing.T) {
	res, err := wal.ScanDir(wal.OSFS, filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	if len(res.Records) != 0 || res.MaxLSN != 0 {
		t.Fatalf("non-empty result from missing dir: %+v", res)
	}
}

func TestStageCommitSplit(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: wal.FsyncAlways})
	tok := l.Stage(0, wal.Record{Op: wal.OpValue, Key: 1, Val: 2}, wal.Record{Op: wal.OpWidth, Key: 1, Val: 0.5})
	if tok == 0 {
		t.Fatal("stage returned zero token")
	}
	if err := l.Commit(0, tok); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(0, tok); err != nil { // idempotent re-commit
		t.Fatal(err)
	}
	if err := l.Commit(0, 0); err != nil { // zero token no-op
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.ScanDir(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Records[0].LSN+1 != res.Records[1].LSN {
		t.Fatalf("staged pair mangled: %+v", res.Records)
	}
}

func TestFileNameFormat(t *testing.T) {
	if got := wal.FileName(3); got != "wal-0003.log" {
		t.Fatalf("FileName(3) = %q", got)
	}
	if !wal.IsLogName("wal-0003.log") || wal.IsLogName("wal-0003.log.tmp") || wal.IsLogName("snap-000001.gob") {
		t.Fatal("IsLogName misclassifies")
	}
	if fmt.Sprintf("%v", wal.Op(77)) != "op(77)" {
		t.Fatal("unknown op String")
	}
}

// gateFS is a filesystem whose first Write announces itself on blocked and
// then blocks until release is closed: a write caught on the disk.
type gateFS struct {
	wal.FS
	once             sync.Once
	blocked, release chan struct{}
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

func (f gateFile) Write(p []byte) (int, error) {
	first := false
	f.g.once.Do(func() { first = true })
	if first {
		close(f.g.blocked)
		<-f.g.release
	}
	return f.File.Write(p)
}

// TestSyncWaitsOutWriteInFlight: Sync returns only once an fsync covers
// every record staged before it, so it must wait out a window's write that
// is still on the disk rather than fsync the empty buffer behind it.
func TestSyncWaitsOutWriteInFlight(t *testing.T) {
	for _, p := range []wal.Policy{wal.FsyncNone, wal.FsyncInterval} {
		t.Run(p.String(), func(t *testing.T) {
			g := &gateFS{FS: wal.OSFS, blocked: make(chan struct{}), release: make(chan struct{})}
			dir := t.TempDir()
			l := openTest(t, wal.Options{Dir: dir, Shards: 1, Policy: p, Interval: time.Millisecond, FS: g})
			l.Stage(0, wal.Record{Op: wal.OpValue, Key: 1, Val: 1})
			<-g.blocked // the window is writing the record
			synced := make(chan error, 1)
			go func() { synced <- l.Sync() }()
			select {
			case err := <-synced:
				t.Fatalf("Sync returned %v while the record's write was still blocked", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(g.release)
			if err := <-synced; err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := wal.ScanDir(wal.OSFS, dir)
			if err != nil || len(res.Records) != 1 {
				t.Fatalf("recovered %d records (%v), want 1", len(res.Records), err)
			}
		})
	}
}

// TestIdleLogDoesNothing: Open starts no goroutine and an idle log issues no
// write or fsync; a run of stages reaches the file in one write and one
// fsync about one window after the run's first stage, which later stages do
// not push back.
func TestIdleLogDoesNothing(t *testing.T) {
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	ffs := faultfs.New(wal.OSFS)
	g0 := settle()
	l := openTest(t, wal.Options{Shards: 2, Policy: wal.FsyncInterval, FS: ffs})
	if added := settle() - g0; added != 0 {
		t.Errorf("Open started %d goroutines, want 0", added)
	}
	time.Sleep(50 * time.Millisecond)
	if n, b := ffs.Syncs(), ffs.BytesWritten(); n != 0 || b != 0 {
		t.Errorf("an idle log issued %d fsyncs and wrote %d bytes in 50ms, want none", n, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	const window = 150 * time.Millisecond
	ffs = faultfs.New(wal.OSFS)
	l = openTest(t, wal.Options{Shards: 1, Policy: wal.FsyncInterval, Interval: window, FS: ffs})
	defer l.Close()
	start := time.Now()
	for i := 0; i < 20; i++ { // a stage every 5ms for 100ms, well inside one window
		l.Stage(0, wal.Record{Op: wal.OpValue, Key: int64(i), Val: 1})
		time.Sleep(5 * time.Millisecond)
	}
	for ffs.Syncs() == 0 {
		if time.Since(start) > 2*time.Second {
			t.Fatal("the window never wrote the run")
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took < window || took > window+60*time.Millisecond {
		t.Errorf("the run reached the disk %v after its first stage, want %v-%v", took, window, window+60*time.Millisecond)
	}
	if got, want := ffs.BytesWritten(), l.Bytes(); got != want {
		t.Errorf("the window's write carried %d of the run's %d bytes", got, want)
	}
	time.Sleep(window + 50*time.Millisecond)
	if n := ffs.Syncs(); n != 1 {
		t.Errorf("the run took %d fsyncs, want 1", n)
	}
}

// TestCloseRacesWindowFires: a window that fires around or after Close
// neither fails the log nor loses a record that Close made durable.
func TestCloseRacesWindowFires(t *testing.T) {
	for i := 0; i < 300; i++ {
		p := wal.FsyncInterval
		if i%2 == 1 {
			p = wal.FsyncNone
		}
		window := time.Duration(1+i%120) * time.Microsecond
		dir := t.TempDir()
		l := openTest(t, wal.Options{Dir: dir, Shards: 2, Policy: p, Interval: window})
		for j := 0; j < 10; j++ {
			l.Stage(j%2, wal.Record{Op: wal.OpValue, Key: int64(j), Val: float64(i)})
			if j == 4 {
				time.Sleep(time.Duration(i%100) * time.Microsecond)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cycle %d (%v, %v): Close: %v", i, p, window, err)
		}
		time.Sleep(window + 200*time.Microsecond) // a late fire lands on the closed log
		if err := l.Err(); err != nil {
			t.Fatalf("cycle %d (%v, %v): Err after a late fire: %v", i, p, window, err)
		}
		res, err := wal.ScanDir(wal.OSFS, dir)
		if err != nil || len(res.Records) != 10 {
			t.Fatalf("cycle %d (%v, %v): recovered %d records (%v), want 10", i, p, window, len(res.Records), err)
		}
	}
}
