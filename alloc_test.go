package apcache

import "testing"

// TestReadAllocs locks in the read path's allocation budget: a Get hit (and
// miss) runs the seqlock probe, the interval read, and the striped counters
// without a single heap allocation. It is the store-side companion of
// netproto's TestWireAllocs and runs in the same CI allocation-regression
// gate.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const keys = 128
	s, err := NewStore(Options{InitialWidth: 10, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	if n := testing.AllocsPerRun(500, func() {
		for k := 0; k < keys; k++ {
			if _, ok := s.Get(k); !ok {
				t.Fatal("tracked key missed")
			}
		}
	}); n != 0 {
		t.Errorf("Get hit path: %v allocs per %d-key sweep, want 0", n, keys)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := s.Get(keys + 12345); ok {
			t.Fatal("phantom hit")
		}
	}); n != 0 {
		t.Errorf("Get miss path: %v allocs/op, want 0", n)
	}
	// A cache-complete bounded query answers entirely from seqlock reads;
	// its only allocations are the query processor's own working set, not
	// per-read boxes. Lock-freedom is the claim under test here, so just
	// exercise it for the side effect of the assertion above staying true
	// while Do probes run concurrently-shaped code paths.
	qkeys := make([]int, keys)
	for k := range qkeys {
		qkeys[k] = k
	}
	if _, err := s.Do(Query{Kind: Sum, Keys: qkeys, Delta: 1e9}); err != nil {
		t.Fatalf("Do: %v", err)
	}
}

// TestJournalStagingAllocs gates the journaled write path: the engine stages a
// Set's records from one reusable slice per shard, so a durable Store.Set
// costs only the log's own allocation per record — one for a value that stays
// inside its interval (OpValue), two for one that escapes (OpValue + OpWidth).
// Each was one more when every write built a fresh record slice.
func TestJournalStagingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := NewStore(Options{InitialWidth: 10, Shards: 4, WALDir: t.TempDir(), WALFsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Track(1, 0)
	// Each step triples, outrunning a width that at most doubles per escape.
	v, step := 0.0, 100.0
	if n := testing.AllocsPerRun(200, func() {
		step *= 3
		v += step
		if !s.Set(1, v) {
			t.Fatal("update did not escape")
		}
	}); n > 2 {
		t.Errorf("escaping durable Set: %v allocs/op, want <= 2", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if s.Set(1, v) {
			t.Fatal("unchanged value escaped")
		}
	}); n > 1 {
		t.Errorf("non-escaping durable Set: %v allocs/op, want <= 1", n)
	}
}
