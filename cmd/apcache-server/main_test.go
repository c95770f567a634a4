package main

import (
	"math"
	"testing"

	"apcache/internal/core"
	"apcache/internal/server"
)

// TestSeedWalksResumesRecoveredKeys restarts a durable server and checks
// that each walk starts at the value the journal recovered for its key,
// while a key new to this run is seeded at 0.
func TestSeedWalksResumesRecoveredKeys(t *testing.T) {
	cfg := server.Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         1,
		Shards:       2,
		WALDir:       t.TempDir(),
	}
	open := func() *server.Server {
		t.Helper()
		srv, err := server.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return srv
	}

	srv := open()
	walks, recovered := seedWalks(srv, 3)
	if recovered != 0 || len(walks) != 3 {
		t.Fatalf("fresh server: %d walks, %d recovered; want 3, 0", len(walks), recovered)
	}
	for k, v := range []float64{40, -25, 7.5} {
		srv.Set(k, v)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv = open()
	defer srv.Close()
	walks, recovered = seedWalks(srv, 4)
	if recovered != 3 {
		t.Errorf("%d keys recovered, want 3", recovered)
	}
	for k, want := range []float64{40, -25, 7.5, 0} {
		if walks[k] != want {
			t.Errorf("walk %d starts at %g, want %g", k, walks[k], want)
		}
		if v, ok := srv.Value(k); !ok || v != want {
			t.Errorf("key %d holds %g (%v), want %g", k, v, ok, want)
		}
	}
}
