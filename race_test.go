package apcache

// Race-focused concurrency suite: goroutine hammers over the sharded Store
// and the networked Server/Client pair, designed to run under `go test
// -race`. Beyond being race-clean, each test re-checks the paper's safety
// invariant at a quiesce point: every cached interval contains the exact
// value it approximates (Section 1.1 — approximations are always valid).

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/workload"
)

// checkStoreInvariant asserts, on a quiesced store, that every cached
// interval contains the exact value. ReadExact both returns the exact value
// and re-centers the interval, so it is read after Get.
func checkStoreInvariant(t *testing.T, s *Store, keys int) {
	t.Helper()
	for k := 0; k < keys; k++ {
		iv, cached := s.Get(k)
		v, err := s.ReadExact(k)
		if err != nil {
			t.Fatalf("ReadExact(%d): %v", k, err)
		}
		if cached && !iv.Valid(v) {
			t.Errorf("key %d: cached interval %v does not contain exact value %g", k, iv, v)
		}
		if cached && (iv.Width() < 0 || math.IsNaN(iv.Width())) {
			t.Errorf("key %d: bad interval width %g", k, iv.Width())
		}
	}
}

// TestStoreHammer interleaves Track, Set, Get, ReadExact and Do from many
// goroutines over a shared key space, across shard counts (1 recovers the
// global-lock configuration).
func TestStoreHammer(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const (
				keys       = 64
				goroutines = 8
				opsPerG    = 400
			)
			s, err := NewStore(Options{
				Params:       Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
				InitialWidth: 10,
				Shards:       shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				s.Track(k, float64(k))
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 100))
					for i := 0; i < opsPerG; i++ {
						k := rng.Intn(keys)
						switch rng.Intn(10) {
						case 0, 1, 2, 3: // 40% updates
							s.Set(k, rng.Float64()*1000)
						case 4, 5, 6: // 30% approximate reads
							if iv, ok := s.Get(k); ok && math.IsNaN(iv.Width()) {
								t.Errorf("NaN-width interval for key %d", k)
								return
							}
						case 7: // exact reads
							if _, err := s.ReadExact(k); err != nil {
								t.Errorf("ReadExact(%d): %v", k, err)
								return
							}
						case 8: // re-track (subscribe is idempotent)
							s.Track(k, rng.Float64()*1000)
						default: // bounded-aggregate queries over random key sets
							qkeys := make([]int, 1+rng.Intn(6))
							for j := range qkeys {
								qkeys[j] = rng.Intn(keys)
							}
							kind := []AggKind{Sum, Max, Min, Avg}[rng.Intn(4)]
							delta := rng.Float64() * 50
							ans, err := s.Do(Query{Kind: kind, Keys: qkeys, Delta: delta})
							if err != nil {
								t.Errorf("Do: %v", err)
								return
							}
							if w := ans.Result.Width(); w > delta+1e-9 {
								t.Errorf("answer width %g exceeds delta %g", w, delta)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			checkStoreInvariant(t, s, keys)
			st := s.Stats()
			if st.Cost < 0 || math.IsNaN(st.Cost) {
				t.Errorf("bad cumulative cost %g", st.Cost)
			}
			if st.ValueRefreshes < 0 || st.QueryRefreshes < 0 {
				t.Errorf("negative refresh counters: %+v", st)
			}
		})
	}
}

// TestHostStateUnderLoad hammers Stats from two goroutines while Set,
// ReadExact and Do run on every shard. The refresh accounting lives once,
// under the shard lock, so under -race this is the check that every writer and
// the reader hold it. A snapshot locks one shard at a time and reads that
// shard's three numbers together, so in every snapshot — not only at rest —
// the cost is exactly what the two counts charge; the counts only grow; and at
// quiescence they are exactly the refreshes the callers were told about.
func TestHostStateUnderLoad(t *testing.T) {
	const (
		keys    = 64
		workers = 4
		opsPerG = 2000
	)
	prm := Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)} // integer costs: float sums are exact
	s, err := NewStore(Options{Params: prm, InitialWidth: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	base := s.Stats()
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := base
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.ValueRefreshes < last.ValueRefreshes || st.QueryRefreshes < last.QueryRefreshes || st.Cost < last.Cost {
					t.Errorf("refresh accounting went backwards: %+v after %+v", st, last)
					return
				}
				if want := float64(st.ValueRefreshes)*prm.Cvr + float64(st.QueryRefreshes)*prm.Cqr; st.Cost != want {
					t.Errorf("snapshot cost %g for %d VIR + %d QIR, want %g", st.Cost, st.ValueRefreshes, st.QueryRefreshes, want)
					return
				}
				last = st
				runtime.Gosched()
			}
		}()
	}
	var vir, qir atomic.Int64
	for g := 0; g < workers; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; i < opsPerG; i++ {
				k := rng.Intn(keys)
				switch rng.Intn(4) {
				case 0, 1:
					if s.Set(k, rng.Float64()*1000) {
						vir.Add(1)
					}
				case 2:
					if _, err := s.ReadExact(k); err != nil {
						t.Errorf("ReadExact(%d): %v", k, err)
						return
					}
					qir.Add(1)
				default:
					ans, err := s.Do(Query{Kind: Max, Keys: []int{k, (k + 1) % keys, (k + 2) % keys}, Delta: rng.Float64() * 50})
					if err != nil {
						t.Errorf("Do: %v", err)
						return
					}
					qir.Add(int64(len(ans.Refreshed)))
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if got, want := st.ValueRefreshes-base.ValueRefreshes, int(vir.Load()); got != want || want == 0 {
		t.Errorf("Stats counts %d value-initiated refreshes, Set reported %d", got, want)
	}
	if got, want := st.QueryRefreshes-base.QueryRefreshes, int(qir.Load()); got != want || want == 0 {
		t.Errorf("Stats counts %d query-initiated refreshes, the callers made %d", got, want)
	}
	var sum StoreStats
	for _, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		sum.ValueRefreshes += int(sh.Host.vir)
		sum.QueryRefreshes += int(sh.Host.qir)
		sum.Cost += sh.Host.cost
		if sh.Host.vir == 0 || sh.Host.qir == 0 {
			t.Errorf("shard %d saw no load: %d VIR, %d QIR", sh.Idx, sh.Host.vir, sh.Host.qir)
		}
		sh.Mu.Unlock()
	}
	if st.ValueRefreshes != sum.ValueRefreshes || st.QueryRefreshes != sum.QueryRefreshes || st.Cost != sum.Cost {
		t.Errorf("Stats %d/%d/%g, the shards hold %d/%d/%g", st.ValueRefreshes, st.QueryRefreshes, st.Cost, sum.ValueRefreshes, sum.QueryRefreshes, sum.Cost)
	}
}

// TestStoreHammerWithEviction runs the hammer against a small cache so
// admits, rejects and evictions race with refreshes.
func TestStoreHammerWithEviction(t *testing.T) {
	const keys, goroutines, opsPerG = 64, 6, 300
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		s.Track(k, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; i < opsPerG; i++ {
				k := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					s.Set(k, rng.Float64()*1000)
				} else {
					s.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	checkStoreInvariant(t, s, keys)
}

// TestNetHammerPooledWire hammers the zero-allocation wire path: pooled
// frame buffers, pooled messages, the reusing per-connection decoders, and
// the adaptive flush window all churn concurrently across several clients
// while the server pushes continuously. Unlike TestClientServerHammer it
// does not pace the updater, so push-queue overflow (drops, legal) and
// RefreshBatch coalescing under a live flush window are both exercised; the
// assertions are therefore about race-cleanliness, query-width guarantees,
// and counter sanity rather than end-state validity.
func TestNetHammerPooledWire(t *testing.T) {
	forEachConnMode(t, netHammerPooledWire)
}

// forEachConnMode runs a server-exercising test once per connection core.
// The poller subtest asserts the event-driven core actually engaged (no
// silent fallback) on platforms that support it, and is skipped elsewhere.
func forEachConnMode(t *testing.T, fn func(t *testing.T, mode string)) {
	t.Helper()
	for _, mode := range []string{ConnModeGoroutine, ConnModePoller} {
		t.Run("connmode="+mode, func(t *testing.T) {
			if mode == ConnModePoller && !PollerSupported() {
				t.Skip("poller core unsupported on this platform")
			}
			fn(t, mode)
		})
	}
}

func netHammerPooledWire(t *testing.T, mode string) {
	const (
		keys          = 48
		clients       = 3
		goroutinesPer = 3
		opsPerG       = 200
	)
	srv, addr, err := Serve("127.0.0.1:0", ServerConfig{
		Params:        DefaultParams(1, 2, 0),
		InitialWidth:  8,
		Shards:        4,
		FlushInterval: 500 * time.Microsecond,
		ConnMode:      mode,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	if got := srv.ConnMode(); got != mode {
		t.Fatalf("server runs ConnMode %q, want %q", got, mode)
	}
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, float64(k))
	}

	cs := make([]*Client, clients)
	for i := range cs {
		c, err := DialConfig(addr.String(), ClientConfig{CacheSize: keys})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		cs[i] = c
		all := make([]int, keys)
		for k := range all {
			all[k] = k
		}
		if err := c.SubscribeMulti(all); err != nil {
			t.Fatalf("SubscribeMulti: %v", err)
		}
	}

	// Unpaced updater: continuous churn keeps the flush window busy and
	// occasionally overflows push queues (drops are legal protocol
	// behavior).
	stop := make(chan struct{})
	var updater sync.WaitGroup
	updater.Add(1)
	go func() {
		defer updater.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				srv.Set(rng.Intn(keys), rng.Float64()*1e6)
				if i%256 == 0 {
					time.Sleep(100 * time.Microsecond) // sub-window gaps: keeps coalescing live without starving the workers
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for ci, c := range cs {
		for g := 0; g < goroutinesPer; g++ {
			wg.Add(1)
			go func(c *Client, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerG; i++ {
					switch rng.Intn(6) {
					case 0:
						c.Get(rng.Intn(keys))
					case 1:
						if _, err := c.ReadExact(rng.Intn(keys)); err != nil {
							t.Errorf("ReadExact: %v", err)
							return
						}
					case 2:
						qkeys := make([]int, 1+rng.Intn(8))
						for j := range qkeys {
							qkeys[j] = rng.Intn(keys)
						}
						if _, err := c.ReadMulti(qkeys); err != nil {
							t.Errorf("ReadMulti: %v", err)
							return
						}
					default:
						qkeys := make([]int, 1+rng.Intn(8))
						for j := range qkeys {
							qkeys[j] = rng.Intn(keys)
						}
						kind := []AggKind{Sum, Max, Min, Avg}[rng.Intn(4)]
						delta := rng.Float64() * 1000
						ans, err := c.Query(Query{Kind: kind, Keys: qkeys, Delta: delta})
						if err != nil {
							t.Errorf("Query: %v", err)
							return
						}
						if w := ans.Result.Width(); w > delta+1e-9 {
							t.Errorf("answer width %g exceeds delta %g", w, delta)
							return
						}
					}
				}
			}(c, int64(ci*100+g))
		}
	}
	wg.Wait()
	close(stop)
	updater.Wait()

	for ci, c := range cs {
		if err := c.Ping(); err != nil {
			t.Fatalf("client %d: Ping: %v", ci, err)
		}
		st := c.Stats()
		if st.QueryRefreshes < 0 || st.ValueRefreshes < 0 {
			t.Errorf("client %d: negative refresh counters: %+v", ci, st)
		}
		if st.FramesSent <= 0 || st.FramesReceived <= 0 {
			t.Errorf("client %d: frame counters not advancing: %+v", ci, st)
		}
	}
}

// TestClientServerHammer runs a server with a concurrent updater thread and
// several clients issuing Get/ReadExact/Query from multiple goroutines each.
// After quiescing (a Ping round trip drains each connection's in-order
// refresh stream), every client-cached interval must contain the server's
// exact value.
func TestClientServerHammer(t *testing.T) {
	const (
		keys          = 32
		clients       = 3
		goroutinesPer = 3
		opsPerG       = 150
	)
	srv, addr, err := Serve("127.0.0.1:0", ServerConfig{
		Params:       DefaultParams(1, 2, 0),
		InitialWidth: 8,
		Shards:       4,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, float64(k))
	}

	cs := make([]*Client, clients)
	for i := range cs {
		c, err := Dial(addr.String(), keys*2)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		cs[i] = c
		for k := 0; k < keys; k++ {
			if err := c.Subscribe(k); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
		}
	}

	// Server-side updater: concurrent value churn pushing refreshes. Updates
	// run in bounded bursts with a Ping drain in between, so a connection's
	// 256-slot push queue can never overflow — a dropped refresh is legal
	// protocol behavior but would weaken the quiesce check below from "must
	// contain" to "may be stale".
	var updater sync.WaitGroup
	updater.Add(1)
	go func() {
		defer updater.Done()
		rng := rand.New(rand.NewSource(99))
		for burst := 0; burst < 20; burst++ {
			for i := 0; i < 100; i++ {
				srv.Set(rng.Intn(keys), rng.Float64()*1000)
			}
			for _, c := range cs {
				if err := c.Ping(); err != nil {
					t.Errorf("drain ping: %v", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for ci, c := range cs {
		for g := 0; g < goroutinesPer; g++ {
			wg.Add(1)
			go func(c *Client, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerG; i++ {
					k := rng.Intn(keys)
					switch rng.Intn(4) {
					case 0:
						c.Get(k)
					case 1:
						if _, err := c.ReadExact(k); err != nil {
							t.Errorf("ReadExact: %v", err)
							return
						}
					default:
						qkeys := []int{rng.Intn(keys), rng.Intn(keys)}
						if _, err := c.Query(Query{Kind: Sum, Keys: qkeys, Delta: rng.Float64() * 100}); err != nil {
							t.Errorf("Query: %v", err)
							return
						}
					}
				}
			}(c, int64(ci*10+g))
		}
	}
	wg.Wait()
	updater.Wait()

	// Quiesce: all Sets have returned, so their refresh frames are enqueued;
	// a Ping response is enqueued after them and the client processes frames
	// in order, so once Ping returns the stream is drained.
	for _, c := range cs {
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
	}
	for ci, c := range cs {
		for k := 0; k < keys; k++ {
			iv, cached := c.Get(k)
			if !cached {
				continue // evicted or a dropped refresh superseded; both legal
			}
			v, ok := srv.Value(k)
			if !ok {
				t.Fatalf("server lost key %d", k)
			}
			if !iv.Valid(v) {
				t.Errorf("client %d key %d: interval %v does not contain exact value %g", ci, k, iv, v)
			}
		}
	}
}

// TestStoreSkewHammer drives a zipf-skewed key distribution — the regime the
// shared admission budget exists for — from many goroutines and then checks
// the per-shard occupancy accounting against its sum invariants: every
// counter pair that must balance (admits-evicts vs occupancy, hits+misses vs
// issued Gets, elastic capacities vs the configured cap) balances exactly,
// across goroutines whose Gets and Sets interleave on every shard.
func TestStoreSkewHammer(t *testing.T) {
	const (
		keys       = 512
		goroutines = 8
		opsPerG    = 3000
		cacheSize  = 64
		shards     = 8
	)
	s, err := NewStore(Options{InitialWidth: 10, CacheSize: cacheSize, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		s.Track(k, float64(k))
	}
	zipf := workload.NewZipfKeys(keys, 1.2)
	var totalGets atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 31))
			gets := 0
			for i := 0; i < opsPerG; i++ {
				k := zipf.Sample(rng)
				if rng.Intn(2) == 0 {
					s.Set(k, rng.Float64()*1000)
				} else {
					s.Get(k)
					gets++
				}
			}
			totalGets.Add(int64(gets))
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	base := cacheSize / (2 * shards)
	var totLen, totCap, totBorrowed, totEvicts, totRejects int
	for i, sh := range st.PerShard {
		if sh.Len > sh.Capacity {
			t.Errorf("shard %d: len %d exceeds capacity %d", i, sh.Len, sh.Capacity)
		}
		if sh.Capacity != base+sh.Borrowed {
			t.Errorf("shard %d: capacity %d != base %d + borrowed %d", i, sh.Capacity, base, sh.Borrowed)
		}
		totLen += sh.Len
		totCap += sh.Capacity
		totBorrowed += sh.Borrowed
		totEvicts += sh.Evicts
		totRejects += sh.Rejects
	}
	if totLen > cacheSize {
		t.Errorf("total occupancy %d exceeds CacheSize %d", totLen, cacheSize)
	}
	if totCap > cacheSize {
		t.Errorf("total elastic capacity %d exceeds CacheSize %d", totCap, cacheSize)
	}
	if totBorrowed == 0 {
		t.Errorf("no budget borrowing under a zipf-skewed load; the admission pool is inert")
	}
	if got := st.Cache.Admits - st.Cache.Evicts; got != totLen {
		t.Errorf("admits-evicts = %d disagrees with total occupancy %d", got, totLen)
	}
	if totEvicts != st.Cache.Evicts || totRejects != st.Cache.Rejects {
		t.Errorf("per-shard evicts/rejects %d/%d disagree with aggregate %d/%d",
			totEvicts, totRejects, st.Cache.Evicts, st.Cache.Rejects)
	}
	if got := int64(st.Cache.Hits + st.Cache.Misses); got != totalGets.Load() {
		t.Errorf("hits+misses = %d, want exactly the %d issued Gets", got, totalGets.Load())
	}
	checkStoreInvariant(t, s, keys)
}
