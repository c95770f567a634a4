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
// # Sharding and the contention-free read path
//
// The algorithm is inherently per-key — each cached value runs its own
// independent width controller — so Store partitions its keys over a
// power-of-two number of shards (Options.Shards, default scaled to
// GOMAXPROCS) — the shard engine in internal/engine, which the networked
// server runs on too. Each shard owns the exact values, controllers, cached
// intervals, and random source for its slice of the key space behind its own
// mutex, so Track/Set/ReadExact on different shards never contend.
//
// Reads go further: they take no lock at all, on any shard. Each cached
// entry is a seqlock — an even/odd version counter beside the interval bits
// — in a lock-free probe table (internal/cache.SeqCache), so Get and the
// bound probes of a bounded-aggregate query (Do) run concurrently with
// writers on the same shard and simply retry the rare torn sequence.
// Writers update entries under the existing shard mutex; only misses and
// the exact-value fetches fall back to it. A query's answer is therefore
// computed from per-interval-consistent reads rather than a whole-query
// snapshot: every interval it uses was individually valid when read, which
// is exactly the guarantee the protocol gives a networked cache anyway.
//
// Cumulative refresh accounting is three plain per-shard numbers under the
// shard mutex the refresh already holds; Stats locks one shard at a time to
// sum them. The cache capacity is skew-aware: each shard reserves only half
// its even split as a guaranteed base and borrows the remainder from a
// shared admission budget on demand, so a hot shard grows at the expense of
// idle ones instead of evicting while cold shards sit on slack.
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
	"sync/atomic"
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
	"apcache/internal/workload"
)

// Interval is a closed numeric interval approximation [Lo, Hi].
type Interval = interval.Interval

// Params carries the algorithm parameters: refresh costs Cvr and Cqr, the
// adaptivity parameter Alpha, and the thresholds Lambda0/Lambda1.
type Params = core.Params

// Modes for Params.Mode.
const (
	// ModeInterval is the standard interval-approximation setting.
	ModeInterval = core.ModeInterval
	// ModeStaleCount specializes the algorithm to stale-value (divergence)
	// approximations.
	ModeStaleCount = core.ModeStaleCount
)

// DefaultParams returns the paper's recommended settings: alpha = 1,
// lambda0 = epsilon (smallest meaningful width), lambda1 = +Inf.
func DefaultParams(cvr, cqr, epsilon float64) Params {
	return core.DefaultParams(cvr, cqr, epsilon)
}

// AggKind selects a bounded-aggregate query type.
type AggKind = workload.AggKind

// Aggregate kinds.
const (
	Sum = workload.Sum
	Max = workload.Max
	Min = workload.Min
	Avg = workload.Avg
)

// Query is a bounded-aggregate query over cached values: Kind over Keys with
// a result-interval width of at most Delta.
type Query = workload.Query

// Answer is a query result: a bounding interval no wider than the query's
// Delta, plus the keys that had to be fetched.
type Answer = query.Answer

// Options configures a Store.
type Options struct {
	// Params are the algorithm parameters; zero value gets
	// DefaultParams(1, 2, 0).
	Params Params
	// CacheSize caps the number of cached approximations; 0 means
	// unlimited growth up to the number of keys. Each shard reserves half
	// its even split as a guaranteed base (at least one slot, so the
	// effective total is at most max(CacheSize, Shards)) and the remainder
	// forms a shared admission budget: a full shard borrows budget slots
	// before entering the eviction competition (widest original width
	// loses, per shard), and returns them as entries are dropped. The
	// aggregate never exceeds CacheSize, but under a skewed key
	// distribution hot shards grow past their even share instead of
	// evicting next to idle ones.
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
	// value write and learned-width update is journaled to a per-shard log
	// under this directory, which is rewritten to the live state in the
	// background. NewStore first recovers what a previous process journaled
	// there — values and learned widths; the cache is re-seeded at those
	// widths and the refresh counters restart — exactly as ServerConfig's
	// WALDir does for a server.
	WALDir string
	// WALFsync selects when journal appends reach stable storage (default
	// FsyncInterval). With FsyncAlways every Set and exact read waits for an
	// fsync covering its records.
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
// side of a refresh — the shard's slice of the cached approximations — and
// the cumulative refresh accounting. All of it is guarded by the shard lock
// except reads of the cache, which are lock-free (see cache.SeqCache).
type hostState struct {
	cache    *cache.SeqCache
	vir, qir int64   // value- and query-initiated refreshes installed
	cost     float64 // their cumulative cost
}

type lockShard = engine.Shard[hostState]

// Store is an in-process adaptive-precision cache: a source of exact values
// and a cache of interval approximations wired through the precision-setting
// algorithm. It is safe for concurrent use; see the package comment for the
// sharding design.
type Store struct {
	// eng owns the shards and, on a store built with a WALDir, the
	// write-ahead journal and its compactor.
	eng    *engine.Engine[hostState]
	prm    Params
	budget *cache.Budget // shared admission slack the shard caches borrow from

	// Watch registry: watches by observed key. watching mirrors "registry
	// non-empty" as an atomic so the refresh hot paths skip the registry
	// lock entirely while no Watch exists (the common case).
	watchMu  sync.RWMutex
	watchers watch.Registry
	watching atomic.Bool
}

const storeCacheID = 0

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
		size = 1 << 20
	}
	// Skew-aware capacity split: each shard keeps half its even share as a
	// guaranteed base (floored at one slot so no shard is uncacheable) and
	// the rest of the cap forms the shared admission budget the shards
	// borrow from under pressure. The aggregate is exact: bases plus pool
	// equal size whenever size >= 2*Shards, and for CacheSize < Shards the
	// effective total is Shards, as with the old even split.
	base := size / (2 * opts.Shards)
	if base < 1 {
		base = 1
	}
	pool := size - base*opts.Shards
	if pool < 0 {
		pool = 0
	}
	s := &Store{
		prm:    opts.Params,
		budget: cache.NewBudget(pool),
	}
	s.eng = engine.New(engine.Config{
		Shards: opts.Shards, Params: opts.Params, InitialWidth: opts.InitialWidth, Seed: opts.Seed,
	}, func(int) hostState { return hostState{cache: cache.NewSeq(base, s.budget)} })
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
			r := sh.Src.Subscribe(storeCacheID, k)
			sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
		}
		sh.Mu.Unlock()
	}
	return s, nil
}

// Shards returns the number of lock shards the store was built with.
func (s *Store) Shards() int { return len(s.eng.Shards()) }

// installLocked is the store's far side of a refresh: charge its cost to the
// shard's count for its kind (&sh.Host.vir or &sh.Host.qir), install the
// interval in the shard's cache, stream it to the watches. The caller holds
// the shard mutex.
func (s *Store) installLocked(sh *lockShard, r source.Refresh, count *int64, cost float64) {
	*count++
	sh.Host.cost += cost
	sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
	s.notifyWatch(r.Key, r.Interval)
}

// Track registers a key with its initial exact value and caches the first
// approximation. Tracking a key that is already live is an update, exactly
// like Set (see engine.Set): routing it through the refresh path keeps the
// cached interval valid.
func (s *Store) Track(key int, v float64) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	token := s.trackLocked(sh, key, v)
	sh.Mu.Unlock()
	s.eng.Commit(sh, token)
}

func (s *Store) trackLocked(sh *lockShard, key int, v float64) uint64 {
	live := sh.Src.Subscribed(storeCacheID, key)
	refreshes, token := s.eng.Set(sh, key, v)
	for _, r := range refreshes {
		s.installLocked(sh, r, &sh.Host.vir, s.prm.Cvr)
	}
	if live && len(refreshes) > 0 {
		return token
	}
	// A new key's first approximation — or, for a live key whose new value
	// sits inside its interval, the still valid current one, re-offered in
	// case the entry was evicted: Track promises the key is cached
	// afterwards. Subscribe on a live pair is a free read of the current
	// state: no cost, no policy adjustment.
	r := sh.Src.Subscribe(storeCacheID, key)
	sh.Host.cache.Put(r.Key, r.Interval, r.OriginalWidth)
	if !live {
		s.notifyWatch(r.Key, r.Interval)
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
// client's rule R1, see internal/source). The source has adapted and
// re-centered the width all the same; the key returns on its next read.
// Watches still see it.
func (s *Store) Set(key int, v float64) bool {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	refreshes, token := s.eng.Set(sh, key, v)
	for _, r := range refreshes {
		if sh.Host.cache.Contains(r.Key) {
			s.installLocked(sh, r, &sh.Host.vir, s.prm.Cvr)
		} else {
			s.notifyWatch(r.Key, r.Interval)
		}
	}
	refreshed := len(refreshes) > 0
	sh.Mu.Unlock()
	s.eng.Commit(sh, token)
	return refreshed
}

// Get returns the cached approximation for key. It takes no lock: the entry
// is read through its seqlock, so a concurrent refresh on the same shard is
// retried rather than waited for, and the returned [Lo, Hi] pair is always
// one self-consistent refresh, never a torn mix of two.
func (s *Store) Get(key int) (Interval, bool) {
	return s.eng.For(key).Host.cache.Get(key)
}

// ReadExact performs a query-initiated refresh: it returns the exact value
// (cost Cqr) and installs a freshly narrowed interval. An unknown key fails
// with an error matching ErrUnknownKey.
func (s *Store) ReadExact(key int) (float64, error) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	if _, ok := sh.Src.Value(key); !ok {
		sh.Mu.Unlock()
		return 0, aperrs.UnknownKey(key)
	}
	v, token := s.readLocked(sh, key)
	sh.Mu.Unlock()
	s.eng.Commit(sh, token)
	return v, nil
}

// readLocked serves a query-initiated refresh for a key on an already-locked
// shard. The returned token is the journal commit handle for the learned
// width (zero on a non-durable store); the caller passes it to the engine's
// Commit after releasing the shard lock.
func (s *Store) readLocked(sh *lockShard, key int) (float64, uint64) {
	r := sh.Src.Read(storeCacheID, key)
	s.installLocked(sh, r, &sh.Host.qir, s.prm.Cqr)
	return r.Value, s.eng.StageWidth(sh, key, r.OriginalWidth)
}

// Do executes a bounded-aggregate query, fetching exact values as needed to
// guarantee the precision constraint. The bound probes over cached intervals
// take no locks — they read through the entries' seqlocks like Get — so a
// query whose constraint is met from the cache alone never contends with
// writers at all. Only the exact-value fetches (and the existence check for
// keys that miss the cache; a cached key is proof of existence, since keys
// are never deleted from the source) briefly lock the owning shard, one key
// at a time.
//
// The answer is therefore computed from per-interval-consistent reads, not
// one whole-query snapshot: each interval individually contained its exact
// value when read, so the result interval's width guarantee (<= q.Delta)
// holds exactly as before, while concurrent updates are no longer blocked
// for the duration of the query.
func (s *Store) Do(q Query) (Answer, error) {
	return s.DoCtx(context.Background(), q)
}

// DoCtx is Do bounded by ctx: cancellation is honored before every
// query-initiated fetch — including between the refinement rounds of a
// MAX/MIN query, which stops mid-sequence — and an already-done context
// fails before any work. Unknown keys fail with an error matching
// ErrUnknownKey (use errors.As with *KeyError for the key).
func (s *Store) DoCtx(ctx context.Context, q Query) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	for _, k := range q.Keys {
		sh := s.eng.For(k)
		if sh.Host.cache.Contains(k) {
			continue
		}
		sh.Mu.Lock()
		_, ok := sh.Src.Value(k)
		sh.Mu.Unlock()
		if !ok {
			return Answer{}, aperrs.UnknownKey(k)
		}
	}
	return query.ExecuteCtx(ctx, q, s.Get,
		func(key int) float64 {
			sh := s.eng.For(key)
			sh.Mu.Lock()
			v, token := s.readLocked(sh, key)
			sh.Mu.Unlock()
			s.eng.Commit(sh, token)
			return v
		})
}

// notifyWatch streams one installed refresh to the watches observing its
// key. Callers hold the key's shard mutex; the atomic guard keeps the
// no-watch hot path to a single load, and Notify never blocks (latest-wins
// coalescing), so a slow Watch consumer cannot stall a writer.
func (s *Store) notifyWatch(key int, iv Interval) {
	if !s.watching.Load() {
		return
	}
	s.watchMu.RLock()
	s.watchers.Notify(key, iv)
	s.watchMu.RUnlock()
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
	for _, k := range ks {
		sh := s.eng.For(k)
		sh.Mu.Lock()
		_, ok := sh.Src.Value(k)
		sh.Mu.Unlock()
		if !ok {
			return nil, aperrs.UnknownKey(k)
		}
	}
	var w *watch.Watch
	w = watch.New(func(*watch.Watch) { s.unwatch(w, ks) })
	s.watchMu.Lock()
	s.watchers.Add(w, ks)
	s.watching.Store(true)
	s.watchMu.Unlock()
	// Seed the stream with the current approximations, taking each key's
	// shard lock so the snapshot interleaves cleanly with concurrent
	// refreshes: for any key, the seed and all later notifications form one
	// ordered sequence (a refresh after the seed is always delivered,
	// possibly coalesced with newer ones).
	for _, k := range ks {
		sh := s.eng.For(k)
		sh.Mu.Lock()
		if iv, ok := sh.Host.cache.Get(k); ok {
			w.Notify(k, iv)
		}
		sh.Mu.Unlock()
	}
	return w, nil
}

// unwatch removes w from the registry entries of its keys.
func (s *Store) unwatch(w *watch.Watch, keys []int) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	s.watchers.Remove(w, keys)
	if s.watchers.Empty() {
		s.watching.Store(false)
	}
}

// ShardOccupancy describes one shard's slice of the cache: how many entries
// it holds against its current capacity. Capacity is elastic — the
// guaranteed base plus however many slots the shard has borrowed from the
// shared admission budget — so under a skewed key distribution hot shards
// report capacities well above their even share while cold ones stay at
// base. The per-shard Evicts/Rejects counters show where capacity pressure
// remains once the budget is exhausted.
type ShardOccupancy struct {
	// Len and Capacity are the shard cache's current entry count and its
	// current (base + borrowed) capacity.
	Len, Capacity int
	// Borrowed is how many of the capacity slots are on loan from the
	// store-wide admission budget.
	Borrowed int
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

// Stats snapshots the store's counters. It locks one shard at a time for
// that shard's refresh accounting — so the snapshot is per-shard-consistent
// rather than global, and a call waits behind whatever write holds each shard
// — and reads the cache counters from each shard cache's own atomics, which
// lock-free readers bump.
func (s *Store) Stats() StoreStats {
	st := StoreStats{PerShard: make([]ShardOccupancy, s.Shards())}
	for i, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		st.ValueRefreshes += int(sh.Host.vir)
		st.QueryRefreshes += int(sh.Host.qir)
		st.Cost += sh.Host.cost
		sh.Mu.Unlock()
		c := sh.Host.cache
		cs := c.Stats()
		st.PerShard[i] = ShardOccupancy{
			Len:      c.Len(),
			Capacity: c.Capacity(),
			Borrowed: c.Borrowed(),
			Evicts:   cs.Evicts,
			Rejects:  cs.Rejects,
		}
		st.Cache.Hits += cs.Hits
		st.Cache.Misses += cs.Misses
		st.Cache.Admits += cs.Admits
		st.Cache.Evicts += cs.Evicts
		st.Cache.Rejects += cs.Rejects
	}
	return st
}

// Server is a networked source process serving cache clients over TCP.
type Server = server.Server

// ServerConfig parameterizes Serve.
type ServerConfig = server.Config

// Connection-core selectors for ServerConfig.ConnMode: the classic
// two-goroutines-per-connection core, or the event-driven poller core that
// multiplexes every connection over a shared epoll loop, decode workers,
// and a writer pool. Unsupported platforms fall back to the goroutine core.
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
// listener opens, and every hosted value and learned width is journaled from
// then on (see server.Open).
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

// ClientConfig parameterizes DialConfig: cache capacity plus the request
// knobs (Timeout, RampFactor) and the fault-tolerance knobs (Reconnect,
// StaleWidthGrowth).
type ClientConfig = client.Config

// ReconnectPolicy configures the client's automatic redial loop
// (ClientConfig.Reconnect): exponential backoff with full jitter, after
// which the session re-runs its handshake and replays every live
// subscription, and open Watch streams resume instead of failing. Disabled
// by default; set Enabled to opt in.
type ReconnectPolicy = client.ReconnectPolicy

// Approx is a locally served approximation with its degradation status:
// Stale marks a read served from last-known state during an outage, Age how
// long the connection has been down (see ClientConfig.StaleWidthGrowth).
type Approx = client.Approx

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
