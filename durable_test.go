package apcache

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apcache/internal/wal"
)

// durableOpts is the deterministic baseline the durability tests share: a
// fixed seed and shard count so a recovered store and a freshly-replayed
// one walk identical controller RNG streams.
func durableOpts(dir string, fsync FsyncPolicy) Options {
	return Options{Seed: 11, Shards: 4, WALDir: dir, WALFsync: fsync}
}

// driveStore applies a deterministic write-heavy workload and returns the
// per-key exact values it ends on.
func driveStore(t *testing.T, s *Store, keys, ops int) map[int]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	final := make(map[int]float64)
	for k := 0; k < keys; k++ {
		v := float64(k)
		s.Track(k, v)
		final[k] = v
	}
	for i := 0; i < ops; i++ {
		k := rng.Intn(keys)
		switch rng.Intn(3) {
		case 0, 1:
			v := final[k] + rng.NormFloat64()*4
			s.Set(k, v)
			final[k] = v
		case 2:
			if _, err := s.ReadExact(k); err != nil {
				t.Fatalf("read %d: %v", k, err)
			}
		}
	}
	return final
}

// checkRecovered asserts a reopened store serves exactly the values and
// learned widths the original ended with.
func checkRecovered(t *testing.T, s *Store, final map[int]float64, widths map[int]float64) {
	t.Helper()
	for k, want := range final {
		got, err := s.ReadExact(k)
		if err != nil {
			t.Fatalf("recovered store lost key %d: %v", k, err)
		}
		if got != want {
			t.Fatalf("key %d recovered value %g, want %g", k, got, want)
		}
	}
	for k, want := range widths {
		got, ok := s.Width(k)
		if !ok {
			t.Fatalf("recovered store lost subscription for key %d", k)
		}
		if got != want {
			t.Fatalf("key %d recovered width %g, want %g", k, got, want)
		}
	}
}

// snapshotWidths captures every key's learned width.
func snapshotWidths(t *testing.T, s *Store, keys int) map[int]float64 {
	t.Helper()
	w := make(map[int]float64, keys)
	for k := 0; k < keys; k++ {
		width, ok := s.Width(k)
		if !ok {
			t.Fatalf("key %d has no width", k)
		}
		w[k] = width
	}
	return w
}

// requireLogOnly asserts a durable directory holds nothing but shard log
// files — a checkpoint leaves no temp file behind.
func requireLogOnly(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatalf("%s is empty", dir)
	}
	for _, e := range ents {
		if !wal.IsLogName(e.Name()) {
			t.Fatalf("%s holds %s; want only wal-*.log", dir, e.Name())
		}
	}
}

func TestOpenDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	final := driveStore(t, s, 40, 600)
	widths := snapshotWidths(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	// Width checks must run before ReadExact refreshes mutate them.
	for k, want := range widths {
		if got, ok := s2.Width(k); !ok || got != want {
			t.Fatalf("key %d recovered width %g (ok=%v), want %g", k, got, ok, want)
		}
	}
	checkRecovered(t, s2, final, nil)
}

func TestOpenDurableRecoversWithoutClose(t *testing.T) {
	// Abandon the store without Close — the crash equivalent. FsyncAlways
	// means every completed write is on disk, so the reopened store must
	// serve the exact final state.
	dir := t.TempDir()
	s, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	final := driveStore(t, s, 25, 400)
	widths := snapshotWidths(t, s, 25)

	s2, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("reopen after abandon: %v", err)
	}
	defer s2.Close()
	for k, want := range widths {
		if got, ok := s2.Width(k); !ok || got != want {
			t.Fatalf("key %d recovered width %g (ok=%v), want %g", k, got, ok, want)
		}
	}
	checkRecovered(t, s2, final, nil)
	s.Close()
}

func TestCompactionFoldsLogAndSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	final := driveStore(t, s, 20, 500)
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if n := s.eng.Log().Records(); n < 20 || n > 40 {
		t.Fatalf("log holds %d records after compaction, want a value and at most a width for each of 20 keys", n)
	}
	requireLogOnly(t, dir)
	// Writes after the compaction land behind the rewritten state.
	s.Set(3, 1e6)
	final[3] = 1e6
	widths := snapshotWidths(t, s, 20)

	// Crash (no Close) and recover: rewritten state + post-compaction tail.
	s2, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for k, want := range widths {
		if got, ok := s2.Width(k); !ok || got != want {
			t.Fatalf("key %d recovered width %g (ok=%v), want %g", k, got, ok, want)
		}
	}
	checkRecovered(t, s2, final, nil)
	s.Close()
}

func TestBackgroundCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	driveStore(t, s, 10, 2000)
	deadline := time.Now().Add(5 * time.Second)
	for s.eng.Log().Records() > 200 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never folded the log: %d records", s.eng.Log().Records())
		}
		s.Set(1, rand.Float64()*100)
		time.Sleep(time.Millisecond)
	}
	// However many checkpoints ran, the log files are all there is — once the
	// compactor is stopped: mid-Rewrite it legitimately holds wal-NNNN.log.tmp
	// (a crash's leftover is Engine.Attach's to clean). Close joins it.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	requireLogOnly(t, dir)
}

// TestDurableStoreKeepsEvictedKeyWidth: a key the cache evicted keeps its
// subscription and learned width at the source, and the checkpoint walks the
// source, not the cache — so a reopened store reads the evicted key and keeps
// adapting from its learned width instead of the initial one.
func TestDurableStoreKeepsEvictedKeyWidth(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Params:       Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		CacheSize:    2,
		Shards:       1,
		WALDir:       dir,
	}
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Track(0, 100)
	s.Track(1, 200)
	// Four escaping updates double key 0's width each time (theta = 1, so
	// every value-initiated refresh grows deterministically): 10 -> 160.
	for _, v := range []float64{300, 500, 700, 900} {
		s.Set(0, v)
	}
	// Admitting key 2 with a full cache evicts the widest entry — key 0.
	s.Track(2, 300)
	if _, ok := s.Get(0); ok {
		t.Fatal("key 0 still cached; eviction setup broken")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if w, ok := s2.Width(0); !ok || w != 160 {
		t.Fatalf("evicted key's width %g (ok=%v) after reopen, want the learned 160", w, ok)
	}
	if v, err := s2.ReadExact(0); err != nil || v != 900 {
		t.Fatalf("ReadExact(0) = %g, %v after reopen; want 900", v, err)
	}
	// One query-initiated shrink halves the learned width, not the initial 10.
	if w, _ := s2.Width(0); w != 80 {
		t.Fatalf("post-read width %g, want 80 (continued from the learned 160)", w)
	}
}

func TestDurableStoreTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(durableOpts(dir, FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	final := driveStore(t, s, 10, 200)
	widths := snapshotWidths(t, s, 10)
	// Tear the tail of every log file: recovery must truncate, not reject.
	names, _ := os.ReadDir(dir)
	for _, e := range names {
		if !wal.IsLogName(e.Name()) {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, e.Name()), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{9, 0, 0, 0, 1, 2, 3}) // truncated frame
		f.Close()
	}
	s2, err := NewStore(durableOpts(dir, FsyncInterval))
	if err != nil {
		t.Fatalf("open with torn tails: %v", err)
	}
	defer s2.Close()
	for k, want := range widths {
		if got, ok := s2.Width(k); !ok || got != want {
			t.Fatalf("key %d recovered width %g (ok=%v), want %g", k, got, ok, want)
		}
	}
	checkRecovered(t, s2, final, nil)
	s.Close()
}

func TestDurableSyncSurfacesFailure(t *testing.T) {
	ffs := wal.NewFaultFS(wal.OSFS)
	dir := t.TempDir()
	opts := durableOpts(dir, FsyncAlways)
	opts.WALFS = ffs
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Track(1, 10)
	if err := s.Sync(); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	boom := fmt.Errorf("disk gone")
	ffs.FailSyncs(boom)
	s.Set(1, 1e9) // escapes the interval, must hit the WAL
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("Close() after fsync failure = %v, want the sticky error", err)
	}
}
