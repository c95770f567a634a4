package apcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"apcache/internal/wal"
)

// durableOpts is the deterministic baseline the durability tests share: a
// fixed seed and shard count so a recovered store and a freshly-replayed
// one walk identical controller RNG streams.
func durableOpts(d *DurabilityOptions) Options {
	return Options{Seed: 11, Shards: 4, Durability: d}
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
// files — the one checkpoint format leaves no snapshot and no temp file.
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

// writeSnap writes a legacy snap-*.gob checkpoint file, as releases before
// the per-shard log rewrite left them.
func writeSnap(t *testing.T, dir string, seq int, snap snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeSnap(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%012d.gob", seq)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	final := driveStore(t, s, 40, 600)
	widths := snapshotWidths(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways}))
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
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{
		Fsync:      FsyncAlways,
		CompactMin: 1 << 30, // keep the abandoned store's compactor quiet
	}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	final := driveStore(t, s, 25, 400)
	widths := snapshotWidths(t, s, 25)

	s2, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways}))
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
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways}))
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
	s2, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways}))
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
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{
		Fsync:        FsyncAlways,
		CompactMin:   64,
		CompactRatio: 0.5,
	}))
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

// TestSaveFileDuringCompaction hammers explicit SaveFile calls (every shard
// lock, ascending) against concurrent checkpoints (one shard lock at a time).
// Run under -race this doubles as a locking proof.
func TestSaveFileDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{
		Fsync:        FsyncNone, // keep the write loop fast
		CompactMin:   32,
		CompactRatio: 0.1,
	}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	for k := 0; k < 16; k++ {
		s.Track(k, float64(k))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Set(rng.Intn(16), rng.Float64()*1000)
			if i%50 == 0 {
				s.Compact()
			}
		}
	}()
	saved := filepath.Join(t.TempDir(), "explicit.gob")
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SaveFile(saved); err != nil {
				t.Errorf("SaveFile during compaction: %v", err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// The explicitly saved snapshot is itself loadable.
	if _, err := LoadFile(saved, 1); err != nil {
		t.Fatalf("explicit snapshot unloadable: %v", err)
	}
}

func TestLoadRejectsNewerVersionTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeSnap(&buf, snapshot{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf, 1)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("newer snapshot error = %v, want ErrSnapshotVersion", err)
	}
	var sv *SnapshotVersionError
	if !errors.As(err, &sv) || sv.Got != snapshotVersion+1 || sv.Max != snapshotVersion {
		t.Fatalf("SnapshotVersionError = %+v", sv)
	}
}

func TestOpenDurableRejectsNewerSnapshot(t *testing.T) {
	// A too-new legacy snapshot must fail typed, not silently fall back to
	// an older file — that would discard acked state.
	dir := t.TempDir()
	writeSnap(t, dir, 4, snapshot{Version: snapshotVersion, Keys: []keySnapshot{{Key: 1, Value: 1}}})
	writeSnap(t, dir, 5, snapshot{Version: snapshotVersion + 3})
	_, err := OpenDurable(dir, durableOpts(nil))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("OpenDurable on newer snapshot = %v, want ErrSnapshotVersion", err)
	}
}

func TestV1SnapshotStillLoads(t *testing.T) {
	// A version-1 snapshot (pre-WAL, no LSN field) must load: gob leaves
	// the missing LSN at zero and every record replays over it.
	var buf bytes.Buffer
	snap := snapshot{
		Version: 1,
		Params:  DefaultParams(1, 2, 0),
		Keys: []keySnapshot{
			{Key: 1, Value: 10, Width: 2.5},
			{Key: 2, Value: 20, Width: 0.5, Cached: true, Lo: 19, Hi: 21, OrigW: 2},
		},
	}
	if err := encodeSnap(&buf, snap); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf, 1)
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if w, ok := s.Width(1); !ok || w != 2.5 {
		t.Fatalf("v1 width = %g (ok=%v)", w, ok)
	}
	if iv, ok := s.Get(2); !ok || iv.Lo != 19 || iv.Hi != 21 {
		t.Fatalf("v1 cached interval = %+v (ok=%v)", iv, ok)
	}
}

func TestOpenDurableCorruptNewestFallsBack(t *testing.T) {
	// A legacy directory whose newest snapshot is corrupt (torn by a failing
	// disk, not by a crash — the rename protocol ruled that out): recovery
	// falls back to the kept previous one rather than fail. State rolls back
	// to that snapshot's coverage plus whatever the log still holds above its
	// LSN — the log was truncated when the newest snapshot landed.
	dir := t.TempDir()
	older := snapshot{Version: snapshotVersion, Params: DefaultParams(1, 2, 0), LSN: 10}
	for k := 0; k < 8; k++ {
		older.Keys = append(older.Keys, keySnapshot{Key: k, Value: float64(k), Width: 2.5})
	}
	writeSnap(t, dir, 1, older)
	if err := os.WriteFile(filepath.Join(dir, "snap-000000000002.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Options{Dir: dir, Shards: 4, Policy: wal.FsyncAlways, StartLSN: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(0, wal.Record{Op: wal.OpValue, Key: 3, Val: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenDurable(dir, durableOpts(nil))
	if err != nil {
		t.Fatalf("open with corrupt newest snapshot: %v", err)
	}
	defer s.Close()
	for k := 0; k < 8; k++ {
		if w, ok := s.Width(k); !ok || w != 2.5 {
			t.Fatalf("fallback recovery: key %d width %g (ok=%v), want 2.5", k, w, ok)
		}
		want := float64(k)
		if k == 3 {
			want = 1e6
		}
		if v, err := s.ReadExact(k); err != nil || v != want {
			t.Fatalf("fallback recovery: key %d = %g, %v; want %g", k, v, err, want)
		}
	}
	requireLogOnly(t, dir) // the corrupt file went with the rest
}

func TestDurableStoreTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways}))
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
	s2, err := OpenDurable(dir, durableOpts(nil))
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
	s, err := OpenDurable(dir, durableOpts(&DurabilityOptions{Fsync: FsyncAlways, FS: ffs}))
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
