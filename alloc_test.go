package apcache

import "testing"

// TestReadAllocs locks in the read path's allocation budget: a Get hit or
// miss allocates nothing, and so does a bounded query whose caller does not
// keep its Answer, whether the cache answered it or it fetched, in one round
// (SUM) or one per key (MAX): Do inlines, and Answer.Refreshed lives on the
// caller's stack. A caller that keeps the Answer pays exactly one allocation.
// It is the store-side companion of netproto's TestWireAllocs and runs in the
// same CI allocation-regression gate.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const keys = 128
	s, err := NewStore(Options{InitialWidth: 10, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	qkeys := make([]int, keys)
	for k := range qkeys {
		qkeys[k] = k
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
	// Delta 0 makes every key of an eight-key query a fetch — SUM in one
	// round, MAX in one round per candidate — for as long as a width halved
	// once per fetch stays above the float spacing at the key's value: the
	// two dozen runs here. Each query reads its own keys. The two closures differ only
	// in whether the Answer outlives the call, which the compiler decides
	// per call site.
	do := func(q Query) Answer {
		a, err := s.Do(q)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if fetched := len(a.Refreshed) > 0; fetched != (q.Delta == 0) {
			t.Fatalf("%v delta %g fetched %d keys", q.Kind, q.Delta, len(a.Refreshed))
		}
		return a
	}
	drop := func(q Query) { a, err := s.Do(q); _, _ = a.Refreshed, err }
	keep := func(q Query) { kept = do(q) }
	for i, tc := range []struct {
		kind  AggKind
		delta float64
		run   func(Query)
		want  float64
	}{
		{Sum, 1e9, drop, 0}, {Sum, 0, drop, 0}, {Max, 0, drop, 0},
		{Sum, 0, keep, 1}, {Max, 0, keep, 1},
	} {
		q := Query{Kind: tc.kind, Keys: qkeys[8*i : 8*i+8], Delta: tc.delta}
		do(q)
		if n := testing.AllocsPerRun(20, func() { tc.run(q) }); n != tc.want {
			t.Errorf("Do %v delta %g, answer kept %v: %v allocs/op, want %v", tc.kind, tc.delta, tc.want > 0, n, tc.want)
		}
		do(q) // still fetching, if delta is 0
	}
}

// kept holds an Answer past the call that made it, as a caller that stores
// answers does.
var kept Answer

// TestJournalStagingAllocs gates the journaled write path: the engine stages a
// Set's records from one reusable slice per shard and the log encodes each
// record in place in its buffer, so a durable Store.Set allocates nothing,
// whether its value stays inside its interval (OpValue) or escapes (OpValue +
// OpWidth). Each record once cost an allocation for its encode scratch.
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
	}); n != 0 {
		t.Errorf("escaping durable Set: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if s.Set(1, v) {
			t.Fatal("unchanged value escaped")
		}
	}); n != 0 {
		t.Errorf("non-escaping durable Set: %v allocs/op, want 0", n)
	}
}
