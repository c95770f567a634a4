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

// checkParentStore requires a store to hold exactly the widths and values of
// a parent image. ReadExact narrows the width it reads, so this runs once per
// opened store.
func checkParentStore(t *testing.T, s *Store, want []parentKeyState, when string) {
	t.Helper()
	for _, ks := range want {
		if w, ok := s.Width(ks.Key); !ok || w != ks.Width {
			t.Fatalf("%s: store key %d: width %g (ok=%v), want %g", when, ks.Key, w, ok, ks.Width)
		}
	}
	for _, ks := range want {
		if v, err := s.ReadExact(ks.Key); err != nil || v != ks.Value {
			t.Fatalf("%s: store key %d: value %g, %v; want %g", when, ks.Key, v, err, ks.Value)
		}
	}
}

// parentStoreOptions opens the parent store image; d may be nil.
func parentStoreOptions(d *DurabilityOptions) Options {
	return Options{InitialWidth: 4, Seed: 7, Shards: 2, Durability: d}
}

// TestParentWrittenDirectoriesRecover opens crash images written by the
// commit before the shard engine was extracted (testdata/parent-dirs: a
// durable Store's two snapshots plus log tail, a durable Server's journal;
// neither was closed) and requires both hosts to recover exactly what that
// commit itself recovered from them — the on-disk formats still read. The
// store's open also migrates the directory to the one checkpoint format: no
// snapshot file is left and the log alone reopens to the same state.
func TestParentWrittenDirectoriesRecover(t *testing.T) {
	dir, want := parentDir(t, "store")
	s, err := OpenDurable(dir, parentStoreOptions(nil))
	if err != nil {
		t.Fatalf("store image: %v", err)
	}
	requireLogOnly(t, dir)
	migrated := t.TempDir() // before the ReadExacts below journal narrower widths
	if err := os.CopyFS(migrated, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	checkParentStore(t, s, want, "parent image")
	s.Close()
	s, err = OpenDurable(migrated, parentStoreOptions(nil))
	if err != nil {
		t.Fatalf("migrated store directory: %v", err)
	}
	defer s.Close()
	checkParentStore(t, s, want, "migrated, log only")

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
