package apcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"apcache/internal/wal"
)

// TestSetInitialOnLiveKeyKeepsIntervalsValid: re-seeding a key a client
// already subscribes to is an update — the value-initiated refresh is pushed
// exactly as Set would push it — not an overwrite that leaves the held
// interval without its value. Seeding a key nobody holds stays refresh-free.
func TestSetInitialOnLiveKeyKeepsIntervalsValid(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		srv, addr, err := Serve("127.0.0.1:0", ServerConfig{
			Params: DefaultParams(1, 2, 0), InitialWidth: 10, Seed: 1, ConnMode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetInitial(1, 100)
		srv.SetInitial(2, 200)
		c, err := Dial(addr.String(), 8)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(1); err != nil {
			t.Fatal(err)
		}
		before, _ := c.Get(1)
		if !before.Valid(100) || before.Valid(1e6) {
			t.Fatalf("subscribed at %v, expected a narrow interval around 100", before)
		}
		srv.SetInitial(1, 1e6)           // live key: must push
		srv.SetInitial(2, 2e6)           // nobody holds it: nothing to push
		srv.SetInitial(3, 300)           // new key
		srv.SetInitial(1, 1e6+1)         // inside the fresh interval: no second push
		if err := c.Ping(); err != nil { // queues behind the push
			t.Fatal(err)
		}
		if iv, ok := c.Get(1); !ok || !iv.Valid(1e6+1) {
			t.Fatalf("after SetInitial(1e6) the client still holds %v", iv)
		}
		if got := c.Stats().ValueRefreshes; got != 1 {
			t.Fatalf("client received %d value-initiated refreshes, want exactly 1", got)
		}
		for k, want := range map[int]float64{1: 1e6 + 1, 2: 2e6, 3: 300} {
			if v, err := c.ReadExact(k); err != nil || v != want {
				t.Fatalf("ReadExact(%d) = %g, %v; want %g", k, v, err, want)
			}
		}
	})
}

// parentKeyState is one key of a testdata/parent-dirs/*-expected.json file.
type parentKeyState struct {
	Key          int
	Value, Width float64
}

// parentDir copies the crash image testdata/parent-dirs/<name> into a temp
// directory (recovery rewrites the directory; work on a copy) and returns it
// with the state the commit that wrote the image itself recovered from it.
func parentDir(t *testing.T, name string) (dir string, want []parentKeyState) {
	t.Helper()
	src := filepath.Join("testdata", "parent-dirs", name)
	dir = t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src + "-expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil || len(want) == 0 {
		t.Fatalf("expected state for %s: %v (%d keys)", name, err, len(want))
	}
	return dir, want
}

// TestParentWrittenDirectoriesRecover opens crash images written by an
// earlier commit (testdata/parent-dirs: a durable Store's and a durable
// Server's per-shard logs; neither was closed) and requires both hosts to
// recover exactly what that commit itself recovered from them — what the
// previous commit wrote, this one reads.
//
// Recipe (PR 25, written by d6006e4 with a throwaway program in a scratch
// clone, not committed): store — Options{InitialWidth: 4, Seed: 7, Shards: 2}
// durable at FsyncAlways; Track keys 0..11, then 300 random Sets/ReadExacts
// with one Compact half way. Server — ServerConfig{Params:
// DefaultParams(1, 2, 0.01), InitialWidth: 4, Seed: 7, Shards: 2} with
// WALFsync always; SetInitial keys 0..11, one loopback client subscribes to
// all twelve, then 300 random Sets/ReadExacts. Each process exits without
// Close; the same commit reopens a copy and writes *-expected.json (Width
// before ReadExact for the store, Value and LearnedWidth for the server).
func TestParentWrittenDirectoriesRecover(t *testing.T) {
	dir, want := parentDir(t, "store")
	s, err := NewStore(Options{InitialWidth: 4, Seed: 7, Shards: 2, WALDir: dir})
	if err != nil {
		t.Fatalf("store image: %v", err)
	}
	defer s.Close()
	requireLogOnly(t, dir)
	// Widths first: ReadExact narrows the width it reads.
	for _, ks := range want {
		if w, ok := s.Width(ks.Key); !ok || w != ks.Width {
			t.Errorf("store key %d: width %g (ok=%v), want %g", ks.Key, w, ok, ks.Width)
		}
	}
	for _, ks := range want {
		if v, err := s.ReadExact(ks.Key); err != nil || v != ks.Value {
			t.Errorf("store key %d: value %g, %v; want %g", ks.Key, v, err, ks.Value)
		}
	}

	dir, want = parentDir(t, "server")
	srv, _, err := Serve("127.0.0.1:0", ServerConfig{
		Params: DefaultParams(1, 2, 0.01), InitialWidth: 4, Seed: 7, Shards: 2,
		WALDir: dir, WALFsync: wal.FsyncNone,
	})
	if err != nil {
		t.Fatalf("server image: %v", err)
	}
	defer srv.Close()
	for _, ks := range want {
		if v, ok := srv.Value(ks.Key); !ok || v != ks.Value {
			t.Errorf("server key %d: value %g (ok=%v), want %g", ks.Key, v, ok, ks.Value)
		}
		if w, _ := srv.LearnedWidth(ks.Key); w != ks.Width {
			t.Errorf("server key %d: learned width %g, want %g", ks.Key, w, ks.Width)
		}
	}
}
