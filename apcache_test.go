package apcache

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(Options{
		Params:       Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func TestStoreTrackAndGet(t *testing.T) {
	s := newStore(t)
	s.Track(1, 100)
	iv, ok := s.Get(1)
	if !ok || !iv.Valid(100) {
		t.Fatalf("Get(1) = %v, %v", iv, ok)
	}
	if iv.Width() != 10 {
		t.Errorf("width %g, want 10", iv.Width())
	}
}

func TestStoreSetRefreshesOnEscape(t *testing.T) {
	s := newStore(t)
	s.Track(1, 100)
	if s.Set(1, 104) {
		t.Errorf("in-interval update refreshed")
	}
	if !s.Set(1, 200) {
		t.Errorf("escape did not refresh")
	}
	iv, _ := s.Get(1)
	if !iv.Valid(200) {
		t.Errorf("interval %v invalid after refresh", iv)
	}
	st := s.Stats()
	if st.ValueRefreshes != 1 || st.Cost != 1 {
		t.Errorf("stats %+v, want 1 VIR cost 1", st)
	}
}

func TestStoreReadExact(t *testing.T) {
	s := newStore(t)
	s.Track(1, 42)
	v, err := s.ReadExact(1)
	if err != nil || v != 42 {
		t.Fatalf("ReadExact = %g, %v", v, err)
	}
	st := s.Stats()
	if st.QueryRefreshes != 1 || st.Cost != 2 {
		t.Errorf("stats %+v, want 1 QIR cost 2", st)
	}
	if _, err := s.ReadExact(99); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("ReadExact of unknown key: err = %v, want ErrUnknownKey match", err)
	} else {
		var ke *KeyError
		if !errors.As(err, &ke) || ke.Key != 99 {
			t.Errorf("errors.As KeyError = %+v, want key 99", ke)
		}
	}
}

func TestStoreQuery(t *testing.T) {
	s := newStore(t)
	for k, v := range []float64{10, 20, 30} {
		s.Track(k, v)
	}
	ans, err := s.Do(Query{Kind: Sum, Keys: []int{0, 1, 2}, Delta: 100})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !ans.Result.Valid(60) {
		t.Errorf("result %v missing 60", ans.Result)
	}
	ans, err = s.Do(Query{Kind: Max, Keys: []int{0, 1, 2}, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 30 {
		t.Errorf("MAX result %v, want [30, 30]", ans.Result)
	}
	if _, err := s.Do(Query{Kind: Sum, Keys: []int{0, 9}, Delta: 0}); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("query over unknown key: err = %v, want ErrUnknownKey match", err)
	}
}

// TestStoreDoUnknownKeyChangesNothing: a query naming an unknown key, at any
// position, is refused before any of its keys is looked up or fetched — the
// all-or-nothing rule a server's multi-key request keeps — so the cache's
// lookup counters and the refresh accounting do not move.
func TestStoreDoUnknownKeyChangesNothing(t *testing.T) {
	s, err := NewStore(Options{InitialWidth: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	known := []int{0, 1, 2, 3, 4, 5}
	for _, k := range known {
		s.Track(k, float64(k))
	}
	for pos := 0; pos <= len(known); pos++ {
		keys := slices.Insert(slices.Clone(known), pos, 99)
		for _, kind := range []AggKind{Sum, Max} {
			before := s.Stats()
			_, err := s.Do(Query{Kind: kind, Keys: keys, Delta: 0})
			var ke *KeyError
			if !errors.As(err, &ke) || ke.Key != 99 {
				t.Fatalf("%v with the unknown key at %d: err = %v, want a KeyError for 99", kind, pos, err)
			}
			after := s.Stats()
			if after.Cache.Hits != before.Cache.Hits || after.Cache.Misses != before.Cache.Misses ||
				after.QueryRefreshes != before.QueryRefreshes || after.Cost != before.Cost {
				t.Errorf("%v with the unknown key at %d moved the store: %+v -> %+v", kind, pos, before, after)
			}
		}
	}
}

// TestStoreDoRefusesMalformedQuery: a query of no keys, of a kind outside
// Sum..Avg or of a negative or NaN Delta is the caller's input, so Do and
// DoCtx return an error for it instead of panicking or answering it as an
// exact query, and the store does not move. A Delta of +Inf is valid.
func TestStoreDoRefusesMalformedQuery(t *testing.T) {
	s, err := NewStore(Options{InitialWidth: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Track(0, 1)
	for _, q := range []Query{
		{Kind: Sum},
		{Kind: Max, Keys: []int{}},
		{Kind: -1, Keys: []int{0}},
		{Kind: Avg + 1, Keys: []int{0}},
		{Kind: Sum, Keys: []int{0}, Delta: math.NaN()},
		{Kind: Sum, Keys: []int{0}, Delta: -1},
		{Kind: Max, Keys: []int{0}, Delta: math.Inf(-1)},
	} {
		before := s.Stats()
		if _, err := s.Do(q); err == nil {
			t.Errorf("Do(%+v) answered", q)
		}
		if _, err := s.DoCtx(context.Background(), q); err == nil {
			t.Errorf("DoCtx(%+v) answered", q)
		}
		if after := s.Stats(); after.Cache != before.Cache || after.QueryRefreshes != before.QueryRefreshes {
			t.Errorf("refused %+v moved the store: %+v -> %+v", q, before, after)
		}
	}
	if _, err := s.Do(Query{Kind: Sum, Keys: []int{0}, Delta: math.Inf(1)}); err != nil {
		t.Errorf("Do with an infinite Delta: %v", err)
	}
}

// errAfter is a context that reports itself cancelled from its (n+1)th Err
// call on, so a test can cut a query at every point the query checks.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestStoreDoStopsBetweenKeysOfOneRound: DoCtx checks its context before
// every key it fetches, inside a round too. Four keys the store does not
// hold are one round to the planner — the certain set of a MAX, the only
// round of a SUM — and a cancellation seen part-way through it must leave
// the rest unfetched and return the context's error, not an answer computed
// from values never read.
func TestStoreDoStopsBetweenKeysOfOneRound(t *testing.T) {
	for _, kind := range []AggKind{Max, Sum} {
		cut := false
		last := -1
		for n := 0; ; n++ {
			// One shard caching one key: keys 1–4 are unbounded.
			s, err := NewStore(Options{InitialWidth: 10, Shards: 1, CacheSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ {
				s.Track(k, float64(k))
			}
			q := Query{Kind: kind, Keys: []int{1, 2, 3, 4}, Delta: 1e9}
			ans, err := s.DoCtx(&errAfter{Context: context.Background(), n: n}, q)
			fetched := s.Stats().QueryRefreshes
			if fetched < last || fetched > 4 {
				t.Fatalf("%v cut after %d checks: %d fetches, after %d with one check fewer", kind, n, fetched, last)
			}
			last = fetched
			if err == nil {
				if fetched != 4 || len(ans.Refreshed) != 4 {
					t.Fatalf("%v: uncut query fetched %d keys, answer %+v; want the 4 unbounded keys", kind, fetched, ans)
				}
				break
			}
			if !errors.Is(err, context.Canceled) || ans.Refreshed != nil || ans.Result != (Interval{}) {
				t.Fatalf("%v cut after %d checks: answer %+v, err %v; want a zero Answer and context.Canceled", kind, n, ans, err)
			}
			if fetched > 0 && fetched < 4 {
				cut = true
			}
		}
		if !cut {
			t.Errorf("%v: no cancellation stopped the round part-way", kind)
		}
	}
}

func TestStoreAdaptsWidth(t *testing.T) {
	s := newStore(t)
	s.Track(1, 0)
	// Repeated exact reads narrow the interval.
	for i := 0; i < 4; i++ {
		if _, err := s.ReadExact(1); err != nil {
			t.Fatal(err)
		}
	}
	iv, _ := s.Get(1)
	if iv.Width() >= 10 {
		t.Errorf("width %g did not shrink under read pressure", iv.Width())
	}
	// Repeated escapes widen it again.
	v := 0.0
	for i := 0; i < 6; i++ {
		v += 1000
		s.Set(1, v)
	}
	iv, _ = s.Get(1)
	if iv.Width() <= 10 {
		t.Errorf("width %g did not grow under update pressure", iv.Width())
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := newStore(t)
	for k := 0; k < 4; k++ {
		s.Track(k, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Set(g, float64(i*7))
				s.Get(g)
				if i%10 == 0 {
					if _, err := s.ReadExact(g); err != nil {
						t.Errorf("ReadExact: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(Options{Params: Params{Cvr: -1, Cqr: 1}}); err == nil {
		t.Errorf("invalid params accepted")
	}
	if _, err := NewStore(Options{InitialWidth: math.NaN()}); err == nil {
		t.Errorf("NaN width accepted")
	}
	// Zero options get defaults.
	s, err := NewStore(Options{})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	s.Track(0, 1)
	if _, ok := s.Get(0); !ok {
		t.Errorf("default store does not cache")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(1, 2, 5)
	if p.Alpha != 1 || p.Lambda0 != 5 || !math.IsInf(p.Lambda1, 1) {
		t.Errorf("DefaultParams = %+v", p)
	}
}

func TestServeAndDial(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", ServerConfig{
		Params:       DefaultParams(1, 2, 0),
		InitialWidth: 8,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	srv.SetInitial(0, 50)
	c, err := Dial(addr.String(), 16)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	iv, ok := c.Get(0)
	if !ok || !iv.Valid(50) {
		t.Errorf("Get = %v, %v", iv, ok)
	}
}

func TestTrackReadmitsEvictedKey(t *testing.T) {
	// A 1-entry cache on one shard: key 1 loses the admission tie against
	// resident key 0 and stays uncached. After key 0's width grows past key
	// 1's, re-Tracking key 1 with a value inside its interval must re-offer
	// the entry — which now wins admission — even though no refresh fires.
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Track(0, 0)
	s.Track(1, 1000)
	if _, ok := s.Get(1); ok {
		t.Fatal("key 1 admitted over resident key 0 on an equal-width tie")
	}
	v := 0.0
	for i := 0; i < 3; i++ { // widen key 0 with escaping updates
		v += 1000
		s.Set(0, v)
	}
	s.Track(1, 1000) // same value: inside the interval, no refresh
	if _, ok := s.Get(1); !ok {
		t.Error("key 1 still uncached after re-Track despite winning admission")
	}
}

// TestTrackMayBeRefused pins what Track promises: it offers a key's first
// approximation to the cache, and a full cache admits it only over a victim
// it outranks, so a freshly tracked key may stay uncached. ReadExact and Do
// serve it all the same, and an unknown key is refused without a lookup
// reaching the source's accounting.
func TestTrackMayBeRefused(t *testing.T) {
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 16
	for k := 0; k < keys; k++ {
		s.Track(k, float64(100*k))
	}
	refused := 0
	for k := 0; k < keys; k++ {
		if _, ok := s.Get(k); !ok {
			refused++
		}
	}
	if refused == 0 {
		t.Fatalf("all %d tracked keys cached in a 4-entry cache", keys)
	}
	for k := 0; k < keys; k++ {
		v, err := s.ReadExact(k)
		if err != nil || v != float64(100*k) {
			t.Errorf("ReadExact(%d) = %g, %v; want %d", k, v, err, 100*k)
		}
		ans, err := s.Do(Query{Kind: Sum, Keys: []int{k}, Delta: 0})
		if err != nil || !ans.Result.IsExact() || ans.Result.Lo != float64(100*k) {
			t.Errorf("Do(SUM{%d}, 0) = %v, %v; want exactly %d", k, ans.Result, err, 100*k)
		}
	}
	before := s.Stats()
	if _, err := s.ReadExact(keys); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("ReadExact of an untracked key: err = %v, want ErrUnknownKey", err)
	}
	if after := s.Stats(); after.QueryRefreshes != before.QueryRefreshes || after.Cost != before.Cost {
		t.Errorf("refused ReadExact moved the stats: %+v -> %+v", before, after)
	}
}

func TestNewStoreHugeCacheSize(t *testing.T) {
	// The per-shard cap must not overflow for CacheSize near MaxInt; the
	// store should behave as effectively unlimited.
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: math.MaxInt, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	for k := 0; k < keys; k++ {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d not cached despite unlimited capacity", k)
		}
	}
}

func TestCacheSizeSplitIsExact(t *testing.T) {
	// The cap must not gain ceiling slack from the per-shard split: with
	// every shard oversubscribed, the store caches exactly CacheSize
	// entries (100 over 16 shards, not 16*ceil(100/16) = 112).
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: 100, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4000
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	cached := 0
	for k := 0; k < keys; k++ {
		if _, ok := s.Get(k); ok {
			cached++
		}
	}
	if cached != 100 {
		t.Errorf("cached %d entries, want exactly 100", cached)
	}
	// 100 = 16·6 + 4: the first four shards hold the remainder's slots.
	for i, sh := range s.Stats().PerShard {
		want := 6
		if i < 4 {
			want = 7
		}
		if sh.Capacity != want {
			t.Errorf("shard %d: capacity %d, want %d", i, sh.Capacity, want)
		}
	}
}

func TestStatsPerShardOccupancy(t *testing.T) {
	// Per-shard occupancy makes capacity pressure observable. Each shard's
	// capacity is its even share of CacheSize, and the shares sum to it.
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: 32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 200 // oversubscribe so eviction pressure appears
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	st := s.Stats()
	if len(st.PerShard) != 4 {
		t.Fatalf("PerShard has %d entries, want 4", len(st.PerShard))
	}
	var totLen, totCap, totEvicts, totRejects int
	for i, sh := range st.PerShard {
		if sh.Len > sh.Capacity {
			t.Errorf("shard %d: len %d exceeds capacity %d", i, sh.Len, sh.Capacity)
		}
		if sh.Capacity != 32/4 {
			t.Errorf("shard %d: capacity %d, want its even share %d", i, sh.Capacity, 32/4)
		}
		totLen += sh.Len
		totCap += sh.Capacity
		totEvicts += sh.Evicts
		totRejects += sh.Rejects
	}
	if totCap != 32 {
		t.Errorf("total capacity %d, want 32", totCap)
	}
	if totLen != 32 {
		t.Errorf("total occupancy %d with %d tracked keys, want full 32", totLen, keys)
	}
	if totEvicts != st.Cache.Evicts || totRejects != st.Cache.Rejects {
		t.Errorf("per-shard evicts/rejects %d/%d disagree with aggregate %d/%d",
			totEvicts, totRejects, st.Cache.Evicts, st.Cache.Rejects)
	}
}

// TestShardEvictsOnlyForItsOwnAdmissions: a shard under eviction pressure
// makes no other shard evict for it, and no capacity moves between shards.
// Every shard is written to, and only the hot one's counters move.
func TestShardEvictsOnlyForItsOwnAdmissions(t *testing.T) {
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: 32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 200
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	// key returns the smallest key of shard i that the shard holds, or that
	// it does not.
	key := func(i int, held bool) int {
		for k := 0; k < keys; k++ {
			sh := s.eng.For(k)
			sh.Mu.Lock()
			ok := sh.Idx == i && sh.Host.cache.Contains(k) == held
			sh.Mu.Unlock()
			if ok {
				return k
			}
		}
		t.Fatalf("shard %d has no key with resident=%v", i, held)
		return 0
	}
	const hot = 0
	before := s.Stats().PerShard
	for round := 0; round < 20; round++ {
		// The hot shard reads a key it misses: a query-initiated refresh
		// narrows the key's width, so it displaces the widest resident. Each
		// other shard reads a key it holds.
		for i := range before {
			if _, err := s.ReadExact(key(i, i != hot)); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := s.Stats().PerShard
	if after[hot].Evicts == before[hot].Evicts {
		t.Fatalf("hot shard %d never evicted; the setup is not evicting", hot)
	}
	totCap := 0
	for i := range after {
		totCap += after[i].Capacity
		if after[i].Capacity != before[i].Capacity {
			t.Errorf("shard %d: capacity %d -> %d", i, before[i].Capacity, after[i].Capacity)
		}
		if i != hot && after[i].Evicts != before[i].Evicts {
			t.Errorf("shard %d: evicts %d -> %d while only shard %d admitted",
				i, before[i].Evicts, after[i].Evicts, hot)
		}
	}
	if totCap != 32 {
		t.Errorf("total capacity %d, want CacheSize 32", totCap)
	}
}
