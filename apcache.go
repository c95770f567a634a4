// Package apcache is an adaptive-precision approximate caching library, a
// from-scratch reproduction of Olston, Loo and Widom, "Adaptive Precision
// Setting for Cached Approximate Values" (ACM SIGMOD 2001).
//
// Numeric source values are cached as intervals [L, H] that are always valid
// (they contain the exact value). The precision of each cached interval —
// its width — is set adaptively: the source widens an interval whose value
// keeps escaping it (value-initiated refreshes) and narrows one that queries
// keep finding too imprecise (query-initiated refreshes), with probabilities
// derived from the refresh cost ratio so the width converges to the
// cost-rate optimum without workload monitoring.
//
// # Sharding
//
// The algorithm is inherently per-key — each cached value runs its own
// independent width controller — so Store partitions its keys over a
// power-of-two number of shards (Options.Shards, default scaled to
// GOMAXPROCS) — the shard engine in internal/engine, which the networked
// server runs on too. Each shard owns the exact values, controllers, cached
// intervals, watches, refresh accounting and random source for its slice of
// the key space behind its own mutex, so operations on different shards never
// contend.
//
// Reads take that mutex too. A shard's cache is the networked client's
// (internal/cache.Cache): it evicts the least-looked-up resident first, then
// the widest, from an indexed heap, and every Get credits a lookup to the
// key, so a read writes cache state just as a refresh does. No Store call
// holds two shard locks: a query (Do) looks each key up and reads each exact
// value under that key's shard lock alone, and every interval it uses was
// valid when read, which is exactly the guarantee the protocol gives a
// networked cache anyway.
//
// The cache capacity is split evenly over the shards, which share no mutable
// state: a key's shard is chosen by a hash of the key, which scatters a
// skewed load's hot keys over the shards at random.
//
// Three deployment shapes are provided:
//
//   - Store: an in-process source + cache pair for library use.
//   - Server/Client (via Serve and Dial): the same protocol over TCP — one
//     wire-protocol version, opened by a mandatory handshake — with the same
//     per-shard locking on the server and a choice of two connection cores
//     (ServerConfig.ConnMode).
//   - the simulator and experiment harness under internal/, driven by
//     cmd/apcache-sim, which regenerate the paper's performance study.
package apcache

import (
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/cache"
	"apcache/internal/client"
	"apcache/internal/core"
	"apcache/internal/engine"
	"apcache/internal/interval"
	"apcache/internal/netpoll"
	"apcache/internal/query"
	"apcache/internal/server"
	"apcache/internal/shard"
	"apcache/internal/source"
	"apcache/internal/wal"
	"apcache/internal/watch"
)

// Interval is a closed numeric interval approximation [Lo, Hi].
type Interval = interval.Interval

// Params carries the algorithm parameters: refresh costs Cvr and Cqr, the
// adaptivity parameter Alpha, and the thresholds Lambda0/Lambda1.
type Params = core.Params

// DefaultParams returns the paper's recommended settings: alpha = 1,
// lambda0 = epsilon (smallest meaningful width), lambda1 = +Inf.
func DefaultParams(cvr, cqr, epsilon float64) Params {
	return core.DefaultParams(cvr, cqr, epsilon)
}

// AggKind selects a bounded-aggregate query type.
type AggKind = query.AggKind

// Aggregate kinds.
const (
	Sum = query.Sum
	Max = query.Max
	Min = query.Min
	Avg = query.Avg
)

// Query is a bounded-aggregate query over cached values: Kind over Keys with
// a result-interval width of at most Delta.
type Query = query.Query

// Answer is a query result: a bounding interval no wider than the query's
// Delta, plus the keys that had to be fetched.
type Answer = query.Answer

// Options configures a Store.
type Options struct {
	// Params are the algorithm parameters; zero value gets
	// DefaultParams(1, 2, 0).
	Params Params
	// CacheSize caps the number of cached approximations; 0 (or less)
	// means 2^20, a cap rather than what the shards allocate up front. Each
	// shard holds CacheSize/Shards, the first CacheSize%Shards one more, and
	// every shard at least one, so the total is max(CacheSize, Shards). A
	// full shard evicts for its own admissions: the least looked-up entry
	// loses, and among equals the widest original width.
	CacheSize int
	// InitialWidth seeds each new controller (default 1).
	InitialWidth float64
	// Seed drives the probabilistic width adjustments (default
	// deterministic seed 1). Each shard derives its own stream from it.
	Seed int64
	// Shards sets the number of lock shards the key space is partitioned
	// over. 0 selects a default scaled to GOMAXPROCS; any value is rounded
	// up to a power of two and capped at 256. Use 1 to recover the old
	// global-lock behavior (useful as a benchmark baseline).
	Shards int
	// WALDir, when non-empty, makes the store write-ahead durable: every
	// value write is journaled to a per-shard log under this directory, which
	// the write that overfills it, and Close, rewrite to the live values and
	// learned widths. NewStore first recovers what a previous process
	// left there — values, plus widths as of its last checkpoint; the cache is
	// re-seeded at those widths and the refresh counters restart — exactly as
	// ServerConfig's WALDir does for a server.
	WALDir string
	// WALFsync selects when journal appends reach stable storage (default
	// FsyncInterval). With FsyncAlways every Set waits for an fsync covering
	// its record; reads journal nothing.
	WALFsync FsyncPolicy
	// WALFsyncInterval is the journal's group-commit window for the
	// interval/none policies (default 2ms).
	WALFsyncInterval time.Duration
	// WALFS overrides the journal's filesystem (fault-injection tests).
	WALFS WALFS
}

func (o Options) withDefaults() Options {
	zero := Params{}
	if o.Params == zero {
		o.Params = DefaultParams(1, 2, 0)
	}
	if o.InitialWidth == 0 {
		o.InitialWidth = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Shards = shard.Count(o.Shards)
	return o
}

// hostState is the store's per-shard state beside the shard's source: its far
// side of a refresh — the shard's slice of the cached approximations and the
// watches observing its keys — and the count of refreshes installed by kind.
// All of it, reads of the cache included, is guarded by the shard lock.
type hostState struct {
	cache    *cache.Cache
	watchers watch.Registry
	vir, qir int64 // value- and query-initiated refreshes installed
}

type lockShard = engine.Shard[hostState]

// Store is an in-process adaptive-precision cache: a source of exact values
// and a cache of interval approximations wired through the precision-setting
// algorithm. It is safe for concurrent use; see the package comment for the
// sharding design.
type Store struct {
	// eng owns the shards and, on a store built with a WALDir, the
	// write-ahead journal.
	eng *engine.Engine[hostState]
	prm Params
}

const storeCacheID = 0

// defaultCacheSize is the cap a Store with CacheSize 0 runs under.
const defaultCacheSize = 1 << 20

// NewStore builds a store. It returns an error on invalid parameters and, with
// opts.WALDir set, on a journal it cannot recover or rewrite: recovery is the
// engine's, the same as server.Open's — a torn or corrupted log tail is
// truncated, not rejected, and the recovered state is rewritten into fresh log
// files before the store accepts writes.
func NewStore(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.InitialWidth < 0 || math.IsNaN(opts.InitialWidth) {
		return nil, fmt.Errorf("apcache: bad InitialWidth %g", opts.InitialWidth)
	}
	size := opts.CacheSize
	if size <= 0 {
		size = defaultCacheSize
	}
	s := &Store{prm: opts.Params}
	s.eng = engine.New(engine.Config{
		Shards: opts.Shards, Params: opts.Params, InitialWidth: opts.InitialWidth, Seed: opts.Seed,
	}, func(i int) hostState {
		capacity := size / opts.Shards
		if i < size%opts.Shards {
			capacity++
		}
		return hostState{cache: cache.NewShard(max(capacity, 1))}
	})
	if opts.WALDir == "" {
		return s, nil
	}
	err := s.eng.Attach(engine.Journal{Log: wal.Options{
		Dir: opts.WALDir, Policy: opts.WALFsync, Interval: opts.WALFsyncInterval, FS: opts.WALFS,
	}})
	if err != nil {
		return nil, fmt.Errorf("apcache: wal: %w", err)
	}
	// Ascending key order, so a bounded cache admits the same keys every time.
	var keys []int
	for _, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		keys = keys[:0]
		sh.Src.ForEach(func(k int, _ float64) { keys = append(keys, k) })
		slices.Sort(keys)
		for _, k := range keys {
			r, _ := sh.Src.Subscribe(storeCacheID, k)
			sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
		}
		sh.Mu.Unlock()
	}
	return s, nil
}

// Shards returns the number of lock shards the store was built with.
func (s *Store) Shards() int { return len(s.eng.Shards()) }

// installLocked is the store's far side of a refresh: count it for its kind
// (&sh.Host.vir or &sh.Host.qir), install the interval in the shard's cache,
// stream it to the watches. The caller holds the shard mutex.
func (s *Store) installLocked(sh *lockShard, r source.Refresh, count *int64) {
	*count++
	sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
	sh.Host.watchers.Notify(r.Key, r.Interval)
}

// Track registers a key with its initial exact value and offers the first
// approximation to the cache, which admits it only over a victim it outranks:
// a full cache may refuse it, and the key is then served by ReadExact and Do
// until a read admits it. Tracking a key that is already live is an update,
// exactly like Set (see engine.Set): routing it through the refresh path
// keeps the cached interval valid.
func (s *Store) Track(key int, v float64) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	token := s.trackLocked(sh, key, v)
	sh.Mu.Unlock()
	s.eng.Commit(sh, token)
}

func (s *Store) trackLocked(sh *lockShard, key int, v float64) uint64 {
	refreshes, token := s.eng.Set(sh, key, v)
	for _, r := range refreshes {
		s.installLocked(sh, r, &sh.Host.vir)
	}
	if len(refreshes) > 0 {
		return token // only a live pair refreshes: the store is its source's one cache
	}
	// A new key's first approximation — or, for a live key whose new value
	// sits inside its interval, the still valid current one, re-offered in
	// case the entry was evicted. The cache may refuse either. Subscribe on a
	// live pair is a free read of the current state: no cost, no policy
	// adjustment.
	r, installed := sh.Src.Subscribe(storeCacheID, key)
	sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
	if installed {
		sh.Host.watchers.Notify(r.Key, r.Interval)
	}
	return token
}

// Set applies an update to a tracked key. If the new value escapes the
// cached interval a value-initiated refresh fires (cost Cvr) and the
// approximation is re-centered with an adaptively grown width. It reports
// whether a refresh fired.
//
// A refresh for a key the shard's cache has evicted is neither installed nor
// charged: source and cache share the shard lock, so the source learns of
// the eviction for free, and a refresh never re-admits (the networked
// client's rule R1, see internal/cacheside). The source has adapted and
// re-centered the width all the same; the key returns on its next read.
// Watches still see it.
func (s *Store) Set(key int, v float64) bool {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	refreshes, token := s.eng.Set(sh, key, v)
	for _, r := range refreshes {
		if sh.Host.cache.Contains(r.Key) {
			s.installLocked(sh, r, &sh.Host.vir)
		} else {
			sh.Host.watchers.Notify(r.Key, r.Interval)
		}
	}
	refreshed := len(refreshes) > 0
	sh.Mu.Unlock()
	s.eng.Commit(sh, token)
	return refreshed
}

// Get returns the cached approximation for key. It takes the key's shard
// mutex: the lookup is credited to the key's use count, which ranks the
// shard's evictions.
func (s *Store) Get(key int) (Interval, bool) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	iv, ok := sh.Host.cache.Get(key)
	sh.Mu.Unlock()
	return iv, ok
}

// ReadExact performs a query-initiated refresh: it returns the exact value
// (cost Cqr) and installs a freshly narrowed interval. An unknown key fails
// with an error matching ErrUnknownKey.
func (s *Store) ReadExact(key int) (float64, error) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	r, ok := s.eng.Read(sh, storeCacheID, key, 0)
	if !ok {
		return 0, aperrs.UnknownKey(key)
	}
	s.installLocked(sh, r, &sh.Host.qir)
	return r.Value, nil
}

// Do executes a bounded-aggregate query, fetching exact values as needed to
// guarantee the precision constraint. It is built from the Store's
// single-key calls, so it never holds two shard locks: an unknown key is
// refused first (Width, which credits no lookup), then every key is looked
// up with Get, in order, and each fetch round reads its keys with ReadExact,
// in the planner's order. Each interval contained its exact value when read,
// so the result interval's width guarantee (<= q.Delta) holds, exactly as
// for a networked cache, and no update waits behind more than one key.
//
// Do allocates nothing when its caller does not keep the Answer past its own
// frame: Do is small enough to inline, and Answer.Refreshed is built in an
// array on the caller's stack (room for refreshedRoom keys; a larger refresh
// set is allocated). A caller that keeps the Answer pays one allocation, that
// array.
func (s *Store) Do(q Query) (Answer, error) {
	var refreshed [refreshedRoom]int
	return s.do(background, q, refreshed[:0])
}

// DoCtx is Do bounded by ctx: cancellation is honored before every
// query-initiated fetch — between the keys of one fetch round and between
// the refinement rounds of a MAX/MIN query, which stops mid-sequence — and
// an already-done context fails before any work. A cancelled query returns
// the context's error with a zero Answer; the refreshes it did run stay
// installed and charged. Unknown keys fail with an error matching
// ErrUnknownKey (use errors.As with *KeyError for the key) and change
// nothing, as does a query of no keys, of a Kind outside Sum..Avg or of a
// negative or NaN Delta (+Inf asks for any bound at all). It allocates as
// Do does.
func (s *Store) DoCtx(ctx context.Context, q Query) (Answer, error) {
	var refreshed [refreshedRoom]int
	return s.do(ctx, q, refreshed[:0])
}

// refreshedRoom is how many fetched keys Do's Answer holds without a heap
// allocation: a SUM fetches its few widest keys, not its whole key set.
const refreshedRoom = 8

// background is Do's context, a variable so that Do stays within the
// compiler's inlining budget.
var background = context.Background()

// doScratch is one query's working set, the held list, pooled so that Do
// allocates nothing. The pool is the package's, not the Store's: the
// runtime keeps a pool it has seen a Put on reachable until two collections
// later, and a pool field would keep a dropped Store's whole shard array
// alive with it.
type doScratch struct {
	held []Interval
}

var doPool = sync.Pool{New: func() any { return new(doScratch) }}

// do is DoCtx with Answer.Refreshed built in refreshed's backing array.
func (s *Store) do(ctx context.Context, q Query, refreshed []int) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	if len(q.Keys) == 0 || q.Kind < Sum || q.Kind > Avg { // query.Plan panics on both
		return Answer{}, fmt.Errorf("apcache: cannot answer %v over %d keys", q.Kind, len(q.Keys))
	}
	if !(q.Delta >= 0) {
		return Answer{}, fmt.Errorf("apcache: query delta %g outside [0, +Inf]", q.Delta)
	}
	for _, k := range q.Keys {
		if _, ok := s.Width(k); !ok {
			return Answer{}, aperrs.UnknownKey(k)
		}
	}
	sc := doPool.Get().(*doScratch)
	defer doPool.Put(sc)
	sc.held = query.Held(sc.held[:0], q.Keys, s.Get)
	var cut error // set once a round was abandoned part-way; its values are not answers
	ans, err := query.Plan(ctx, q, sc.held, func(keys []int, vals []float64) {
		for i, k := range keys {
			if cut = ctx.Err(); cut != nil {
				return
			}
			vals[i], _ = s.ReadExact(k) // every key was checked above, and keys are never deleted
		}
	}, 1, refreshed)
	if cut != nil {
		return Answer{}, cut
	}
	return ans, err
}

// Watch opens a streaming subscription over keys: the handle's Updates
// channel delivers every refresh the store installs for them —
// value-initiated refreshes from Set/Track and the narrowed intervals of
// query-initiated reads — as Update values, starting with the current
// approximations. Updates are coalesced per key (latest-wins) when the
// consumer falls behind, so writers are never stalled by a slow consumer.
// Close detaches the stream. Watching an untracked key fails with an error
// matching ErrUnknownKey.
func (s *Store) Watch(keys ...int) (*Watch, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("apcache: watch of no keys")
	}
	ks := append([]int(nil), keys...) // detach from the caller's backing array
	var w *watch.Watch
	w = watch.New(func(*watch.Watch) { s.unwatch(w, ks) })
	// Register and seed each key in one critical section of its shard, so
	// the seed and every later refresh of the key form one ordered sequence:
	// a refresh after the seed is always delivered, possibly coalesced with
	// newer ones.
	for i, k := range ks {
		sh := s.eng.For(k)
		sh.Mu.Lock()
		if _, ok := sh.Src.Value(k); !ok {
			sh.Mu.Unlock()
			w.Close()
			return nil, aperrs.UnknownKey(k)
		}
		sh.Host.watchers.Add(w, ks[i:i+1])
		// Seed from the source, not the cache: a refused or evicted key
		// still has its approximation, and a watch is not a lookup.
		iv, _ := sh.Src.IntervalFor(storeCacheID, k) // Track subscribes every key
		w.Notify(k, iv)
		sh.Mu.Unlock()
	}
	return w, nil
}

// unwatch removes w from the registry entries of its keys, each under its
// shard's lock.
func (s *Store) unwatch(w *watch.Watch, keys []int) {
	for i, k := range keys {
		sh := s.eng.For(k)
		sh.Mu.Lock()
		sh.Host.watchers.Remove(w, keys[i:i+1])
		sh.Mu.Unlock()
	}
}

// ShardOccupancy describes one shard's slice of the cache: how many entries
// it holds against its capacity, the shard's fixed share of CacheSize.
type ShardOccupancy struct {
	// Len and Capacity are the shard cache's entry count and capacity.
	Len, Capacity int
	// Evicts and Rejects count the shard's capacity-pressure events.
	Evicts, Rejects int
}

// StoreStats reports a store's cumulative refresh activity.
type StoreStats struct {
	// ValueRefreshes and QueryRefreshes count refreshes by kind.
	ValueRefreshes, QueryRefreshes int
	// Cost is the total refresh cost (Cvr and Cqr weighted).
	Cost float64
	// Cache snapshots the cache counters, summed over all shards.
	Cache cache.Stats
	// PerShard breaks the cache occupancy down by shard.
	PerShard []ShardOccupancy
}

// Stats snapshots the store's counters. It locks one shard at a time, so the
// snapshot is per-shard-consistent rather than global, and a call waits
// behind whatever holds each shard.
func (s *Store) Stats() StoreStats {
	st := StoreStats{PerShard: make([]ShardOccupancy, s.Shards())}
	for i, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		st.ValueRefreshes += int(sh.Host.vir)
		st.QueryRefreshes += int(sh.Host.qir)
		c := sh.Host.cache
		cs := c.Stats()
		st.PerShard[i] = ShardOccupancy{
			Len:      c.Len(),
			Capacity: c.Capacity(),
			Evicts:   cs.Evicts,
			Rejects:  cs.Rejects,
		}
		sh.Mu.Unlock()
		st.Cache.Hits += cs.Hits
		st.Cache.Misses += cs.Misses
		st.Cache.Admits += cs.Admits
		st.Cache.Evicts += cs.Evicts
		st.Cache.Rejects += cs.Rejects
	}
	st.Cost = float64(st.ValueRefreshes)*s.prm.Cvr + float64(st.QueryRefreshes)*s.prm.Cqr
	return st
}

// Server is a networked source process serving cache clients over TCP.
type Server = server.Server

// ServerConfig parameterizes Serve.
type ServerConfig = server.Config

// Connection-core selectors for ServerConfig.ConnMode: the classic
// read-goroutine-per-connection core, or the event-driven poller core that
// multiplexes every connection's reads over shared epoll loops. Under both,
// replies leave from the reading goroutine, pushes from a per-connection
// drainer goroutine. Unsupported platforms fall back to the goroutine core.
const (
	ConnModeGoroutine = server.ConnModeGoroutine
	ConnModePoller    = server.ConnModePoller
)

// PollerSupported reports whether this platform has an event-driven
// connection core; when false, ConnModePoller downgrades to the goroutine
// core at Listen time.
func PollerSupported() bool { return netpoll.Supported() }

// Serve starts a server on addr ("host:port", port 0 picks a free one) and
// returns it with its bound address. With cfg.WALDir set the server is
// durable: journaled state under that directory is recovered before the
// listener opens, and every hosted value is journaled from then on (see
// server.Open).
func Serve(addr string, cfg ServerConfig) (*Server, net.Addr, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, bound, nil
}

// Client is a networked approximate cache connected to a Server.
type Client = client.Client

// ClientConfig parameterizes DialConfig: cache capacity plus the default
// request deadline (Timeout) and the fault-tolerance knob (Reconnect).
type ClientConfig = client.Config

// ReconnectPolicy configures the client's automatic redial loop
// (ClientConfig.Reconnect): exponential backoff with full jitter, after
// which the session re-runs its handshake and replays its coherence set (held
// keys, watched keys, standing queries), and open Watch streams resume
// instead of failing. Disabled by default; set Enabled to opt in.
type ReconnectPolicy = client.ReconnectPolicy

// Dial connects a cache of the given capacity to a server. A server that
// does not speak this build's protocol version fails it with an error
// matching ErrHandshakeRefused.
func Dial(addr string, cacheSize int) (*Client, error) {
	return client.Dial(addr, cacheSize)
}

// DialConfig connects a cache to a server with explicit protocol knobs.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	return client.DialConfig(addr, cfg)
}

// Watch is a streaming subscription handle: Updates delivers the watched
// keys' refreshes as they are applied, with per-key latest-wins coalescing
// when the consumer falls behind. Obtain one from Store.Watch (in-process)
// or Client.Watch (networked); both feeds share the semantics documented on
// those methods.
type Watch = watch.Watch

// Update is one observed refresh (the key and its freshly installed
// interval approximation) or — on a networked watch riding a reconnecting
// client — a connection lifecycle event (Key is -1; see EventKind).
type Update = watch.Update

// EventKind classifies an Update: an ordinary refresh, or a connection
// lifecycle event of the feed the watch rides on.
type EventKind = watch.EventKind

// Watch update kinds. Lifecycle events are delivered only by networked
// watches whose client reconnects automatically (ClientConfig.Reconnect):
// EventDisconnected announces an outage, EventReconnected that the
// connection is back with every subscription replayed.
const (
	EventRefresh      = watch.EventRefresh
	EventDisconnected = watch.EventDisconnected
	EventReconnected  = watch.EventReconnected
)
