package server

// Durability tests for the server's write-ahead journal: values survive a
// restart, learned widths survive as of the last checkpoint or clean Close and
// seed new subscriptions, reads journal nothing, the write that overfills a
// shard's log file folds it, and shard-layout changes are absorbed on open. The full
// client-facing contract (drain + restart + resubscribe) lives in the root
// package's chaos suite.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"apcache/internal/engine"
	"apcache/internal/netproto"
	"apcache/internal/wal"
)

func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.WALDir = dir
	cfg.Shards = 4
	return cfg
}

func TestOpenRecoversValues(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const keys = 100
	for k := 0; k < keys; k++ {
		s.SetInitial(k, float64(k))
	}
	for k := 0; k < keys; k += 2 {
		s.Set(k, float64(k)+0.5)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for k := 0; k < keys; k++ {
		want := float64(k)
		if k%2 == 0 {
			want += 0.5
		}
		got, ok := s2.Value(k)
		if !ok {
			t.Fatalf("key %d lost across restart", k)
		}
		if got != want {
			t.Fatalf("key %d recovered as %g, want %g", k, got, want)
		}
	}
}

func TestOpenSeedsSubscriptionsAtLearnedWidth(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetInitial(5, 50)
	// Learn a width the way the read path does; Close's checkpoint writes it.
	sh := s.eng.For(5)
	sh.Mu.Lock()
	read, _ := s.eng.Read(sh, 1, 5, 0)
	learned := read.OriginalWidth
	sh.Mu.Unlock()
	if learned == cfg.InitialWidth {
		t.Fatalf("the read learned nothing: width %g", learned)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if w, ok := s2.LearnedWidth(5); !ok || w != learned {
		t.Fatalf("LearnedWidth(5) = %g, %v; want %g, true", w, ok, learned)
	}
	// A fresh subscription must start at the learned width, not
	// InitialWidth (10 in testConfig).
	sh2 := s2.eng.For(5)
	sh2.Mu.Lock()
	r, _ := sh2.Src.Subscribe(1, 5)
	sh2.Mu.Unlock()
	if r.OriginalWidth != learned {
		t.Fatalf("resubscription started at width %g, want learned %g", r.OriginalWidth, learned)
	}
}

// TestReadsAppendNoRecords: a learned width is a hint, not an acknowledged
// write, so a client's exact reads append nothing to the journal — and the
// read path has nothing to commit under its shard locks.
func TestReadsAppendNoRecords(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.WALFsync = wal.FsyncAlways
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const keys, reads = 8, 20
	for k := 0; k < keys; k++ {
		s.SetInitial(k, float64(k))
	}
	conn := rawDial(t, addr.String())
	hello(t, conn)
	before := s.eng.Log().Records()
	for i := 0; i < reads; i++ {
		id := uint64(2 + i)
		if err := netproto.Write(conn, &netproto.ReadMulti{ID: id, Keys: []int64{int64(i % keys), int64((i + 3) % keys)}}); err != nil {
			t.Fatal(err)
		}
		msg, err := netproto.ReadMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if rb, ok := msg.(*netproto.RefreshBatch); !ok || rb.ID != id || len(rb.Items) != 2 {
			t.Fatalf("ReadMulti %d answered %#v", id, msg)
		}
	}
	if got := s.eng.Log().Records() - before; got != 0 {
		t.Fatalf("%d ReadMultis appended %d records, want 0", reads, got)
	}
	if _, ok := s.LearnedWidth(0); !ok {
		t.Fatal("the reads learned no width")
	}
}

func TestWALCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const keys = 8
	for k := 0; k < keys; k++ {
		s.SetInitial(k, 0)
	}
	// Push well past the compaction floor so Commits rewrite shard files.
	final := make(map[int]float64, keys)
	for i := 0; i < 2*engine.DefaultCompactMin; i++ {
		k := i % keys
		v := float64(i)
		s.Set(k, v)
		final[k] = v
	}
	// Each file is now within its threshold, which may still be above two
	// records per key. Force one whole checkpoint to assert the fold itself.
	if err := s.eng.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := s.eng.Log().Records(); got > int64(2*keys) {
		t.Fatalf("compaction left %d records for %d keys", got, keys)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	for k, want := range final {
		if got, ok := s2.Value(k); !ok || got != want {
			t.Fatalf("key %d recovered as %g (ok=%v), want %g", k, got, ok, want)
		}
	}
}

func TestOpenAbsorbsShardCountChange(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir) // 4 shards
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for k := 0; k < 32; k++ {
		s.SetInitial(k, float64(100+k))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg.Shards = 1
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen with 1 shard: %v", err)
	}
	defer s2.Close()
	for k := 0; k < 32; k++ {
		if got, ok := s2.Value(k); !ok || got != float64(100+k) {
			t.Fatalf("key %d recovered as %g (ok=%v) after shard change", k, got, ok)
		}
	}
	// The three stale shard files from the 4-shard layout must be gone once
	// their records were folded into the single current file.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if wal.IsLogName(e.Name()) && e.Name() != wal.FileName(0) {
			t.Fatalf("stale shard file %s survived the layout change", e.Name())
		}
	}
}

func TestAbandonedServerRecovers(t *testing.T) {
	// No clean Close: with fsync=always everything a returned Set journaled
	// must already be on disk, so a second process recovers it all.
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WALFsync = wal.FsyncAlways
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for k := 0; k < 16; k++ {
		s.SetInitial(k, float64(k))
		s.Set(k, float64(k)*2)
	}

	cfg2 := durableConfig(filepath.Join(dir)) // same dir, fresh server
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	for k := 0; k < 16; k++ {
		if got, ok := s2.Value(k); !ok || got != float64(k)*2 {
			t.Fatalf("key %d recovered as %g (ok=%v), want %g", k, got, ok, float64(k)*2)
		}
	}
}

func TestCloseSurfacesBrokenDurability(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	cfg := durableConfig(t.TempDir())
	cfg.WALFS = ffs
	cfg.WALFsync = wal.FsyncAlways
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	diskGone := errors.New("disk gone")
	ffs.FailSyncs(diskGone)
	s.SetInitial(1, 1) // commit hits the failing fsync; error is sticky
	if err := s.Close(); !errors.Is(err, diskGone) {
		t.Fatalf("Close = %v, want the sticky fsync failure", err)
	}
}

// driveJournal hosts keys under a direct source subscription (cache ID 1, no
// connection behind it), drives escaping updates and exact reads, so the
// journal holds values exactly as client traffic would leave them, and ends
// with a checkpoint. It returns the acked state: with fsync=always every value
// below is on disk when the Set that wrote it returned, and every width is the
// closing checkpoint's.
func driveJournal(t *testing.T, s *Server, keys int) (vals, widths map[int]float64) {
	t.Helper()
	vals, widths = map[int]float64{}, map[int]float64{}
	for k := 0; k < keys; k++ {
		s.SetInitial(k, float64(k))
		sh := s.eng.For(k)
		sh.Mu.Lock()
		sh.Src.Subscribe(1, k)
		sh.Mu.Unlock()
	}
	for i := 0; i < 40*keys; i++ {
		k := i % keys
		if i%5 == 4 {
			sh := s.eng.For(k)
			sh.Mu.Lock()
			s.eng.Read(sh, 1, k, 0)
			sh.Mu.Unlock()
			continue
		}
		vals[k] = float64(k) + float64(i)*37
		s.Set(k, vals[k])
	}
	if err := s.eng.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for k := 0; k < keys; k++ {
		w, ok := s.LearnedWidth(k)
		if !ok {
			t.Fatalf("key %d learned no width", k)
		}
		widths[k] = w
	}
	return vals, widths
}

func checkJournalRecovers(t *testing.T, dir string, vals, widths map[int]float64, when string) {
	t.Helper()
	rec, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", when, err)
	}
	defer rec.Close()
	for k, v := range vals {
		if got, ok := rec.Value(k); !ok || got != v {
			t.Fatalf("%s: key %d recovered as %g (ok=%v), want %g", when, k, got, ok, v)
		}
		if got, _ := rec.LearnedWidth(k); got != widths[k] {
			t.Fatalf("%s: key %d recovered width %g, want %g", when, k, got, widths[k])
		}
	}
}

// TestCheckpointPowerCutSweep cuts simulated power at successive byte offsets
// of the engine's checkpoint — each shard's temp-file write, fsync, rename and
// reopen — and requires recovery to serve every acked value and the previous
// checkpoint's learned widths every time. A checkpoint acknowledges nothing, so it may lose nothing: a
// crash between shards leaves old and rewritten files that replay merges.
func TestCheckpointPowerCutSweep(t *testing.T) {
	base := t.TempDir()
	for budget, iter := int64(0), 0; ; budget, iter = budget+53, iter+1 {
		if iter > 500 {
			t.Fatalf("checkpoint never completed within the sweep (budget %d)", budget)
		}
		dir := filepath.Join(base, fmt.Sprintf("cut-%06d", budget))
		ffs := wal.NewFaultFS(nil)
		cfg := durableConfig(dir)
		cfg.WALFS, cfg.WALFsync = ffs, wal.FsyncAlways
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("budget %d: Open: %v", budget, err)
		}
		vals, widths := driveJournal(t, s, 12)
		ffs.CutPowerAfter(budget)
		cerr := s.eng.Checkpoint()
		for k, v := range vals { // durability degrades, the live server does not
			if got, _ := s.Value(k); got != v {
				t.Fatalf("budget %d: live value of key %d disturbed: %g, want %g", budget, k, got, v)
			}
		}
		s.Close() // error expected once the budget is hit; recovery is the test
		checkJournalRecovers(t, dir, vals, widths, fmt.Sprintf("budget %d", budget))
		if cerr == nil {
			return // the whole checkpoint fit under the budget: every earlier offset is swept
		}
	}
}

// TestCheckpointRenameFailureRecovers breaks the rename that commits each
// rewritten shard file: the checkpoint fails cleanly, the live server and the
// old files are untouched, and a later checkpoint (disk healed) succeeds.
func TestCheckpointRenameFailureRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil)
	cfg := durableConfig(dir)
	cfg.WALFS, cfg.WALFsync = ffs, wal.FsyncAlways
	var logged []string
	cfg.Logf = func(format string, args ...interface{}) { logged = append(logged, fmt.Sprintf(format, args...)) }
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	vals, widths := driveJournal(t, s, 12)
	ffs.FailRenames(errors.New("rename blocked"))
	if err := s.eng.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite failing renames")
	}
	// Abandon the server here: what a crash right after the failed
	// checkpoint would leave on disk must recover in full.
	checkJournalRecovers(t, copyDir(t, dir), vals, widths, "after failed checkpoint")
	ffs.FailRenames(nil)
	s.Set(3, -5)
	vals[3] = -5
	widths[3], _ = s.LearnedWidth(3)
	if err := s.eng.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(logged) != 0 {
		t.Fatalf("a failed rename is not broken durability, yet the server logged %q", logged)
	}
	checkJournalRecovers(t, dir, vals, widths, "after healed checkpoint")
}

func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWritesAfterCloseAreNotJournaled: once Close has run, Set and SetInitial
// still update memory but must neither touch the closed log — with
// fsync=always that used to fail the write and report broken durability —
// nor buffer records nobody will flush.
func TestWritesAfterCloseAreNotJournaled(t *testing.T) {
	for _, pol := range []wal.Policy{wal.FsyncAlways, wal.FsyncInterval} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.WALFsync = pol
			var logged []string
			cfg.Logf = func(format string, args ...interface{}) { logged = append(logged, fmt.Sprintf(format, args...)) }
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			vals, widths := driveJournal(t, s, 8)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s.Set(1, 1e9)
			s.SetInitial(2, 2e9)
			s.SetInitial(99, 99)
			if v, _ := s.Value(1); v != 1e9 {
				t.Fatalf("a closed server stopped applying writes in memory: key 1 = %g", v)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if len(logged) != 0 {
				t.Fatalf("writes after Close logged %q", logged)
			}
			checkJournalRecovers(t, dir, vals, widths, "after late writes")
			rec, err := Open(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if _, ok := rec.Value(99); ok {
				t.Fatal("a key first written after Close was journaled")
			}
		})
	}
}
