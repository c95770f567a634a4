package apcache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := newStore(t)
	for k, v := range []float64{10, 20, 30} {
		s.Track(k, v)
	}
	// Adapt some state: narrow key 2, widen key 0.
	for i := 0; i < 3; i++ {
		if _, err := s.ReadExact(2); err != nil {
			t.Fatal(err)
		}
	}
	v := 10.0
	for i := 0; i < 4; i++ {
		v += 100
		s.Set(0, v)
	}
	before := s.Stats()

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := Load(&buf, 99)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	after := restored.Stats()
	if after.ValueRefreshes != before.ValueRefreshes || after.QueryRefreshes != before.QueryRefreshes {
		t.Errorf("counters lost: %+v vs %+v", after, before)
	}
	if after.Cost != before.Cost {
		t.Errorf("cost lost: %g vs %g", after.Cost, before.Cost)
	}
	// Cached intervals and exact values survive.
	for k, want := range []float64{v, 20, 30} {
		iv0, ok0 := s.Get(k)
		iv1, ok1 := restored.Get(k)
		if ok0 != ok1 || iv0 != iv1 {
			t.Errorf("key %d interval mismatch: %v/%v vs %v/%v", k, iv0, ok0, iv1, ok1)
		}
		got, err := restored.ReadExact(k)
		if err != nil || got != want {
			t.Errorf("key %d value %g, want %g (err %v)", k, got, want, err)
		}
	}
}

func TestLoadPreservesAdaptedWidths(t *testing.T) {
	s := newStore(t)
	s.Track(0, 0)
	// Narrow the width via reads: 10 -> 10/16.
	for i := 0; i < 4; i++ {
		if _, err := s.ReadExact(0); err != nil {
			t.Fatal(err)
		}
	}
	narrowed, _ := s.Get(0)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The next refresh must continue from the narrowed width, not restart
	// from the default: a value escape doubles it.
	restored.Set(0, 1e6)
	iv, _ := restored.Get(0)
	if iv.Width() > narrowed.Width()*2+1e-9 {
		t.Errorf("restored width %g did not continue from adapted %g", iv.Width(), narrowed.Width())
	}
}

// TestSaveKeepsEvictedSubscriptions is the regression test for snapshots
// walking the cache instead of the source: a key whose cache entry was
// evicted still has a live subscription and a learned width, and both must
// survive a Save/Load cycle. Before the fix the key vanished from the
// snapshot entirely — the restored store failed reads of it and re-adapted
// its precision from the initial width.
func TestSaveKeepsEvictedSubscriptions(t *testing.T) {
	s, err := NewStore(Options{
		Params:       Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		CacheSize:    2,
		Shards:       1,
	})
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
		t.Fatalf("key 0 still cached; eviction setup broken")
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := LoadOptions(&buf, Options{Seed: 1, Shards: 1, CacheSize: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// The learned width must have survived the round trip...
	p, ok := restored.eng.For(0).Src.PolicyFor(storeCacheID, 0)
	if !ok {
		t.Fatalf("restored store has no subscription for the evicted key")
	}
	if got := p.Width(); got != 160 {
		t.Fatalf("restored width %g, want learned 160", got)
	}
	// ...the evicted key's value must still be readable...
	v, err := restored.ReadExact(0)
	if err != nil {
		t.Fatalf("ReadExact(0) on restored store: %v", err)
	}
	if v != 900 {
		t.Errorf("restored value %g, want 900", v)
	}
	// ...and the read continues adapting from 160 (one query-initiated
	// shrink halves it to 80), not from the initial 10.
	if got := p.Width(); math.Abs(got-80) > 1e-9 {
		t.Errorf("post-read width %g, want 80 (continued from learned 160)", got)
	}
}

// TestLoadRejectsTruncatedSnapshot feeds Load every proper prefix of a
// valid snapshot: each must fail with a clean error, never a panic or a
// silently partial store.
func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	s := newStore(t)
	for k := 0; k < 8; k++ {
		s.Track(k, float64(k*10))
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n += 7 {
		if _, err := Load(bytes.NewReader(full[:n]), 1); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) accepted", n, len(full))
		}
	}
}

// TestLoadRejectsCorruptNumericState: a snapshot carrying NaN or negative
// widths or an inverted interval must be rejected with an error — the
// controller panics on such widths, so letting them through would crash the
// restoring process.
func TestLoadRejectsCorruptNumericState(t *testing.T) {
	corrupt := func(name string, mutate func(*keySnapshot)) {
		s := newStore(t)
		s.Track(0, 1)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap snapshot
		if err := decodeSnap(&buf, &snap); err != nil {
			t.Fatal(err)
		}
		mutate(&snap.Keys[0])
		var buf2 bytes.Buffer
		if err := encodeSnap(&buf2, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf2, 1); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	corrupt("nan width", func(ks *keySnapshot) { ks.Width = math.NaN() })
	corrupt("negative width", func(ks *keySnapshot) { ks.Width = -1 })
	corrupt("inf width", func(ks *keySnapshot) { ks.Width = math.Inf(1) })
	corrupt("inverted interval", func(ks *keySnapshot) { ks.Lo, ks.Hi = 5, -5 })
	corrupt("nan interval", func(ks *keySnapshot) { ks.Lo = math.NaN() })
	corrupt("negative original width", func(ks *keySnapshot) { ks.OrigW = -2 })
}

// TestSaveDeterministicBytes: identical state must serialize to identical
// bytes (keys are emitted sorted), so snapshot diffing and content-addressed
// storage work.
func TestSaveDeterministicBytes(t *testing.T) {
	build := func() *bytes.Buffer {
		s := newStore(t)
		for k := 19; k >= 0; k-- {
			s.Track(k, float64(k))
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(build().Bytes(), build().Bytes()) {
		t.Errorf("two saves of identical state differ")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a snapshot"), 1); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	s := newStore(t)
	s.Track(0, 1)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-encode with a bumped version by decoding into the raw struct.
	var snap snapshot
	if err := decodeSnap(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 99
	var buf2 bytes.Buffer
	if err := encodeSnap(&buf2, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2, 1); err == nil {
		t.Errorf("wrong version accepted")
	}
}

func TestSaveEmptyStore(t *testing.T) {
	s := newStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save empty: %v", err)
	}
	restored, err := Load(&buf, 1)
	if err != nil {
		t.Fatalf("Load empty: %v", err)
	}
	if _, ok := restored.Get(0); ok {
		t.Errorf("empty restore has entries")
	}
	if math.IsNaN(restored.Stats().Cost) {
		t.Errorf("NaN cost")
	}
}

func TestLoadOptionsControlsShards(t *testing.T) {
	s, err := NewStore(Options{InitialWidth: 10, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		s.Track(k, float64(k*10))
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := LoadOptions(&buf, Options{Seed: 7, Shards: 1})
	if err != nil {
		t.Fatalf("LoadOptions: %v", err)
	}
	if got := restored.Shards(); got != 1 {
		t.Fatalf("restored.Shards() = %d, want 1", got)
	}
	// Keys re-hash onto the new layout with state intact.
	for k := 0; k < 20; k++ {
		v, err := restored.ReadExact(k)
		if err != nil {
			t.Fatalf("ReadExact(%d): %v", k, err)
		}
		if v != float64(k*10) {
			t.Errorf("key %d restored as %g, want %g", k, v, float64(k*10))
		}
	}
}

// TestSaveFileLoadFileRoundTrip checks the crash-safe file path end to end:
// state survives, and no temporary file is left behind on success.
func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	s := newStore(t)
	for k, v := range []float64{10, 20, 30} {
		s.Track(k, v)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	restored, err := LoadFile(path, 99)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	for k, want := range []float64{10, 20, 30} {
		got, err := restored.ReadExact(k)
		if err != nil || got != want {
			t.Errorf("key %d restored as %g, want %g (err %v)", k, got, want, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "state.snap" {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after SaveFile holds %v, want only state.snap", names)
	}
}

// TestSaveFileSurvivesCrashMidWrite simulates the failure SaveFile exists
// for: a process dies while writing a new snapshot. Because the write goes
// to a temp file and lands via rename, the abandoned partial file must not
// shadow or corrupt the last complete snapshot.
func TestSaveFileSurvivesCrashMidWrite(t *testing.T) {
	s := newStore(t)
	s.Track(0, 42)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	// A crash mid-write leaves a partial temp sibling — garbage bytes under
	// the same naming scheme SaveFile uses.
	junk := filepath.Join(dir, "state.snap.tmp123456")
	if err := os.WriteFile(junk, []byte("partial snapsh"), 0o644); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadFile(path, 1)
	if err != nil {
		t.Fatalf("LoadFile after simulated crash: %v", err)
	}
	if v, err := restored.ReadExact(0); err != nil || v != 42 {
		t.Fatalf("restored value %g (err %v), want 42", v, err)
	}

	// The next SaveFile of the same path succeeds regardless of the
	// leftover, and a fresh load sees the new state.
	s.Set(0, 43)
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile over leftover temp: %v", err)
	}
	restored2, err := LoadFile(path, 1)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if v, err := restored2.ReadExact(0); err != nil || v != 43 {
		t.Fatalf("re-saved value %g (err %v), want 43", v, err)
	}
}

// TestLoadFileRejectsTruncatedFile: a snapshot cut off mid-byte-stream (the
// torn write SaveFile's rename discipline prevents, forced here by hand)
// must fail loudly, not yield a partial store.
func TestLoadFileRejectsTruncatedFile(t *testing.T) {
	s := newStore(t)
	for k := 0; k < 8; k++ {
		s.Track(k, float64(k))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, 1); err == nil {
		t.Fatalf("LoadFile accepted a truncated snapshot")
	}
}

// TestLoadFileMissing: loading a path that does not exist is a plain error.
func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.snap"), 1); err == nil {
		t.Fatalf("LoadFile of a missing path succeeded")
	}
}
