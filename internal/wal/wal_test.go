package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordRoundtrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Op: OpValue, Key: 0, Val: 0},
		{LSN: 2, Op: OpValue, Key: -42, Val: -123.456},
		{LSN: 3, Op: OpWidth, Key: 1 << 40, Val: 0.5},
		{LSN: 4, Op: OpWidth, Key: -7, Val: 0},
		{LSN: math.MaxUint64, Op: OpValue, Key: math.MaxInt64, Val: math.MaxFloat64},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := appendRecord(nil, Record{LSN: 5, Op: OpValue, Key: 3, Val: 1.5})
	if _, _, err := decodeRecord(valid); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	// Every single-byte flip must be caught by the checksum or framing.
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		if r, _, err := decodeRecord(mut); err == nil && r == (Record{LSN: 5, Op: OpValue, Key: 3, Val: 1.5}) {
			t.Fatalf("flip at byte %d decoded to the original record", i)
		}
	}
	// Every truncation is a torn frame.
	for n := 0; n < len(valid); n++ {
		if _, _, err := decodeRecord(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Semantically invalid fields are rejected even with a valid checksum.
	for _, r := range []Record{
		{Op: OpValue, Key: 1, Val: math.NaN()},
		{Op: OpValue, Key: 1, Val: math.Inf(1)},
		{Op: OpWidth, Key: 1, Val: -1},
		{Op: OpWidth, Key: 1, Val: math.NaN()},
	} {
		if _, _, err := decodeRecord(appendRecord(nil, r)); err == nil {
			t.Fatalf("invalid record %+v decoded", r)
		}
	}
	// So are unknown ops — the retired legacy ops 3, 4 and 5 among them.
	for _, op := range []Op{3, 4, 5, 200} {
		_, _, err := decodeRecord(appendRecord(nil, Record{Op: op, Key: 1}))
		if err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %d decoded as %v, want an unknown op", op, err)
		}
	}
}

func openTest(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Shards == 0 {
		opts.Shards = 2
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Shards: 3, Policy: FsyncAlways})
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{Op: OpValue, Key: int64(i), Val: float64(i) / 3}
		if i%5 == 0 {
			r = Record{Op: OpWidth, Key: int64(i), Val: float64(i)}
		}
		if err := l.Append(i%3, r); err != nil {
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
	res, err := ScanDir(OSFS, dir)
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
	l := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncAlways})
	for i := 0; i < 10; i++ {
		if err := l.Append(0, Record{Op: OpWidth, Key: int64(i), Val: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName(0))
	// Append garbage simulating a torn record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()
	res, err := ScanDir(OSFS, dir)
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
	l2 := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncAlways, StartLSN: res.MaxLSN})
	if err := l2.Append(0, Record{Op: OpValue, Key: 77, Val: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := ScanDir(OSFS, dir)
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
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncAlways, FS: ffs})
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(0, Record{Op: OpValue, Key: int64(w*per + i), Val: 1}); err != nil {
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
	res, err := ScanDir(OSFS, dir)
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
	l := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncInterval, Interval: time.Millisecond})
	if err := l.Append(0, Record{Op: OpValue, Key: 1, Val: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := os.ReadFile(filepath.Join(dir, FileName(0)))
		if len(data) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never wrote the record")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStickyFsyncError(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	l := openTest(t, Options{Shards: 1, Policy: FsyncAlways, FS: ffs})
	boom := errors.New("boom")
	ffs.FailSyncs(boom)
	if err := l.Append(0, Record{Op: OpValue, Key: 1, Val: 1}); !errors.Is(err, boom) {
		t.Fatalf("append under failing fsync: %v", err)
	}
	ffs.FailSyncs(nil)
	// The failure is sticky: later appends refuse rather than silently
	// resuming with a hole in the log.
	if err := l.Append(0, Record{Op: OpValue, Key: 2, Val: 2}); !errors.Is(err, boom) {
		t.Fatalf("append after sticky failure: %v", err)
	}
	if err := l.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v", err)
	}
}

func TestShortWriteRecoversPrefix(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncAlways, FS: ffs})
	for i := 0; i < 5; i++ {
		if err := l.Append(0, Record{Op: OpValue, Key: int64(i), Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ffs.ShortWriteOnce(3) // tear the next record mid-frame
	if err := l.Append(0, Record{Op: OpValue, Key: 99, Val: 1}); err == nil {
		t.Fatal("torn append reported success")
	}
	res, err := ScanDir(OSFS, dir)
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
		ffs := NewFaultFS(OSFS)
		if budget >= 0 {
			ffs.CutPowerAfter(budget)
		}
		dir = t.TempDir()
		l, err := Open(Options{Dir: dir, Shards: 1, Policy: FsyncAlways, FS: ffs})
		if err != nil {
			return 0, dir
		}
		for i := 0; i < 20; i++ {
			if err := l.Append(0, Record{Op: OpWidth, Key: int64(i), Val: float64(i) + 0.5}); err != nil {
				break
			}
			acked++
		}
		l.Close()
		return acked, dir
	}
	_, full := run(-1)
	info, err := os.Stat(filepath.Join(full, FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	total := info.Size()
	for cut := int64(0); cut <= total; cut += 7 {
		acked, dir := run(cut)
		res, err := ScanDir(OSFS, dir)
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
	l := openTest(t, Options{Dir: dir, Shards: 2, Policy: FsyncAlways})
	for i := 0; i < 30; i++ {
		if err := l.Append(i%2, Record{Op: OpValue, Key: int64(i % 2), Val: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	staged := make(chan struct{})
	go func() { // shard 1 is not excluded by a rewrite of shard 0
		defer close(staged)
		for i := 0; i < 100; i++ {
			l.Stage(1, Record{Op: OpWidth, Key: 1, Val: float64(i)})
		}
	}()
	err := l.Rewrite(0, []Record{
		{Op: OpValue, Key: 0, Val: 100},
		{Op: OpWidth, Key: 0, Val: 0.25},
	})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	<-staged
	if got := l.Records(); got != 2+15+100 {
		t.Fatalf("Records() = %d after rewrite, want 117 (2 rewritten, shard 1's 115 kept)", got)
	}
	if err := l.Append(0, Record{Op: OpValue, Key: 9, Val: 9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 118 {
		t.Fatalf("recovered %d records, want 118", len(res.Records))
	}
	var shard0 []Record
	for _, r := range res.Records {
		if r.Key != 1 {
			shard0 = append(shard0, r)
		}
	}
	if len(shard0) != 3 || shard0[0].Val != 100 || shard0[1].Op != OpWidth || shard0[2].Key != 9 {
		t.Fatalf("shard 0 recovered as %+v", shard0)
	}
	if shard0[0].LSN <= 30 {
		t.Fatalf("rewritten record kept LSN %d; it must outrank the 30 records it replaces", shard0[0].LSN)
	}
}

func TestRewriteRenameFailureKeepsOldLog(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncAlways, FS: ffs})
	for i := 0; i < 5; i++ {
		if err := l.Append(0, Record{Op: OpValue, Key: int64(i), Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Staged, not yet written: a failed rewrite must leave it to its Commit.
	tok := l.Stage(0, Record{Op: OpValue, Key: 5, Val: 1})
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
	res, err := ScanDir(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("old log damaged by failed rewrite: %d records", len(res.Records))
	}
	names, _ := OSFS.ReadDir(dir)
	for _, n := range names {
		if !IsLogName(n) {
			t.Fatalf("temp file %s left behind", n)
		}
	}
	l.Close()
}

func TestScanMergesShardCountChange(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Shards: 4, Policy: FsyncAlways})
	for i := 0; i < 12; i++ {
		if err := l.Append(i%4, Record{Op: OpValue, Key: int64(i), Val: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery reads all four files even if the next deployment uses one shard.
	res, err := ScanDir(OSFS, dir)
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
	for in, want := range map[string]Policy{
		"always": FsyncAlways, "interval": FsyncInterval, "none": FsyncNone, "": FsyncInterval,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestMissingDirScansEmpty(t *testing.T) {
	res, err := ScanDir(OSFS, filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	if len(res.Records) != 0 || res.MaxLSN != 0 {
		t.Fatalf("non-empty result from missing dir: %+v", res)
	}
}

func TestStageCommitSplit(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Shards: 1, Policy: FsyncAlways})
	tok := l.Stage(0, Record{Op: OpValue, Key: 1, Val: 2}, Record{Op: OpWidth, Key: 1, Val: 0.5})
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
	res, err := ScanDir(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Records[0].LSN+1 != res.Records[1].LSN {
		t.Fatalf("staged pair mangled: %+v", res.Records)
	}
}

func TestFileNameFormat(t *testing.T) {
	if got := FileName(3); got != "wal-0003.log" {
		t.Fatalf("FileName(3) = %q", got)
	}
	if !IsLogName("wal-0003.log") || IsLogName("wal-0003.log.tmp") || IsLogName("snap-000001.gob") {
		t.Fatal("IsLogName misclassifies")
	}
	if fmt.Sprintf("%v", Op(77)) != "op(77)" {
		t.Fatal("unknown op String")
	}
}
