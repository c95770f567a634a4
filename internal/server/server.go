// Package server implements a networked data source: it hosts exact numeric
// values, accepts cache clients over TCP, runs one adaptive width controller
// per (client, key) subscription, pushes value-initiated refreshes when
// updates escape cached intervals, and answers exact reads (query-initiated
// refreshes). Every connection runs the one delivery pipeline in pipeline.go
// under one of two I/O drivers (Config.ConnMode): a read goroutine plus a
// writer goroutine per connection, or the shared event-driven core in
// poller.go.
//
// The key space is partitioned over Config.Shards lock shards (default
// scaled to GOMAXPROCS) by internal/engine, which owns each shard's
// source.Source, random stream, mutex and journal staging; this package is
// the far side of a refresh — the connection push and the standing-query
// fold — called under the shard lock it takes, and keeps no copy of what the
// source holds: a key exists if the shard's source has it, and Stats counts
// what the sources count. Requests from different connections contend only
// when they touch keys on the same shard. The connection registry has its
// own lock; the only nested acquisition is shard lock → connection lock
// (never the reverse), so the ordering is deadlock-free. Refresh frames for
// a key are enqueued while its shard lock is held, which guarantees each
// client observes that key's intervals in generation order — installing them
// in arrival order preserves the validity invariant. Multi-key requests
// (ReadMulti, SubscribeMulti) hold all their shards' locks, acquired in
// ascending index order, while the single response frame is enqueued, so the
// same ordering guarantee extends to them.
//
// A connection must open with Hello at the server's protocol version (see
// internal/netproto); a lower offer, or any other first frame, is answered
// with Error2{CodeUnsupported} and a close. The protocol batches at both ends
// of a connection: the request loop decodes a multi-key frame, fans its keys
// out across the shards they hash to, and replies with one frame; the writer
// coalesces queued value-initiated pushes into RefreshBatch frames, flushing
// on size (maxBatch), when a response is waiting, or when the per-connection
// adaptive flush window expires.
//
// A slow client's pushes are never silently dropped: when its queue is
// congested they park in a per-connection merge buffer and fold (see
// outQueue for the delivery contract). Stats counts the diversions
// (PushOverflows) and folds (PushMerges).
//
// The wire path is allocation-free in steady state and syscall-minimal: the
// read loop decodes through a netproto.StreamDecoder (reused message boxes,
// frames decoded in place in the read buffer), responses and pushes travel as
// pooled netproto messages that the writer releases after encoding, and each
// flush encodes its entire batch into one reused buffer written with a single
// conn.Write call. The flush window adapts per connection: an EWMA of observed
// inter-push gaps shrinks the configured FlushInterval so quiet connections
// flush immediately while bursty ones coalesce aggressively.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/core"
	"apcache/internal/cq"
	"apcache/internal/engine"
	"apcache/internal/interval"
	"apcache/internal/netpoll"
	"apcache/internal/netproto"
	"apcache/internal/source"
	"apcache/internal/wal"
)

// maxBatch caps the pushes the writer coalesces into one RefreshBatch frame
// and the messages one drain takes: a held push run flushes at this size.
const maxBatch = 128

// Connection-core selectors for Config.ConnMode.
const (
	// ConnModeGoroutine serves each connection with a read goroutine and a
	// write goroutine — the classic core, and the benchmark baseline.
	ConnModeGoroutine = "goroutine"
	// ConnModePoller serves every connection from a shared event-driven
	// core: a small set of event loops owns read readiness through epoll
	// and serves reads, decode, dispatch, and inline reply flushes, with a
	// shared writer pool taking only the flushes that may block, so an
	// idle connection costs a registered descriptor plus its state
	// instead of two goroutine stacks.
	ConnModePoller = "poller"
)

// Config parameterizes a server.
type Config struct {
	// Params configures the per-subscription adaptive controllers.
	Params core.Params
	// InitialWidth seeds each new controller.
	InitialWidth float64
	// Seed drives the controllers' probabilistic adjustments. Each shard
	// derives its own stream from it.
	Seed int64
	// Shards sets the number of lock shards the key space is partitioned
	// over. 0 selects a default scaled to GOMAXPROCS; any value is rounded
	// up to a power of two and capped at 256.
	Shards int
	// FlushInterval caps how long the per-connection writer may hold a
	// value-initiated push to coalesce it with successors. The actual
	// window adapts per connection: it is FlushInterval shrunk by the
	// EWMA of that connection's inter-push gaps (clamped to
	// [0, FlushInterval]), so a connection receiving sparse pushes flushes
	// immediately while a bursty one uses the whole window. 0 disables
	// the window entirely (flush as soon as the queue drains); responses
	// to requests always flush immediately regardless.
	FlushInterval time.Duration
	// ConnMode selects the connection-serving core: ConnModeGoroutine (or
	// "") keeps two dedicated goroutines per connection; ConnModePoller
	// multiplexes all connections over the event-driven core in
	// internal/netpoll. On platforms without a poller implementation (or
	// when the poller fails to start) the server logs the downgrade and
	// falls back to the goroutine core, preserving today's behavior.
	ConnMode string
	// WALDir, when non-empty, makes Open journal the server's durable state
	// — hosted values and per-key learned widths — to a write-ahead log
	// under this directory. A restarted server recovers the journal before
	// listening, so reconnecting clients find their keys at the values and
	// precision the previous process had learned instead of a cold start.
	// New ignores it (only Open attaches the log).
	WALDir string
	// WALFsync selects when journal appends reach stable storage (default
	// wal.FsyncInterval; see the wal.Policy constants). With wal.FsyncAlways
	// every Set and exact read waits for an fsync covering its records.
	WALFsync wal.Policy
	// WALFsyncInterval is the journal's group-commit window for the
	// interval/none policies (default 2ms).
	WALFsyncInterval time.Duration
	// WALFS overrides the journal's filesystem (fault-injection tests).
	WALFS wal.FS
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...interface{})
}

// hostState is what the server keeps per shard beside the shard's source:
// three numbers the source does not count. Like Src it is guarded by the
// shard's Mu — every writer is a request already holding it, and Stats takes
// it to read.
type hostState struct {
	cost    int64 // EWMA of measured per-key refresh latency, nanoseconds; 0 before any read
	mutes   int   // mutes honoured, monotonic
	refused int   // mutes refused, monotonic
}

type lockShard = engine.Shard[hostState]

// Server hosts values and serves cache clients.
type Server struct {
	cfg      Config
	connMode string // resolved ConnMode (never empty)

	// eng owns the shards and, on a server opened with WALDir, the journal of
	// hosted values and learned widths. Journal failures are surfaced by
	// Shutdown and Close; the server keeps serving from memory regardless.
	eng *engine.Engine[hostState]

	// poll is the shared event-driven connection core; nil when the
	// server runs the goroutine driver.
	poll *pollCore

	// wheel carries every connection's flush-window deadline; nil when
	// FlushInterval is 0 (no windows to arm).
	wheel *netpoll.Wheel

	// queries maintains the registered continuous queries. Each holds source
	// subscriptions under a cache ID of its own, disjoint from connection
	// IDs, so Set's push loop routes refreshes that resolve to no connection
	// here.
	queries *cq.Engine

	// pushStats is the merge-buffer accounting every connection's queue
	// reports into.
	pushStats pushStats

	// connMu guards the connection registry and listener lifecycle. It is
	// only ever acquired after a shard lock, never before one.
	connMu  sync.Mutex
	conns   map[int]*clientConn
	nextID  int
	ln      net.Listener
	closed  bool
	serveWG sync.WaitGroup

	// cqObserves and cqUpdates count the refreshes handed to the
	// continuous-query engine and the answers it had pushed, under connMu.
	cqObserves, cqUpdates int
}

// clientConn is one connected cache.
type clientConn struct {
	id   int
	conn *net.TCPConn
	done chan struct{}

	// ctx is cancelled the moment the connection leaves the registry, so
	// in-flight work on its behalf — in particular the multi-key fan-out
	// goroutines — stops generating source reads for a dead peer.
	ctx    context.Context
	cancel context.CancelFunc

	// q is the delivery state machine, w the flush state its drain-slot
	// holder owns, timer the flush-window deadline on the server's wheel.
	// wake is the driver's half of the drain slot: called after an enqueue
	// claimed it, it gets a drainer running and never blocks.
	q     outQueue
	w     connWriter
	timer netpoll.Timer
	wake  func()

	// kick is the goroutine driver's wake: one slot suffices because a
	// second wake can only follow the drain the first one started.
	kick chan struct{}
	// pc is the connection's poller-driver state; nil under the goroutine
	// driver.
	pc *pollConn

	// greeted records that the connection's first frame was an accepted
	// Hello; until then dispatch serves nothing else. Only the goroutine
	// that owns the connection's dispatch touches it.
	greeted bool
	// replies numbers the reply frames enqueued for this connection, the
	// clock mutes are judged against (rule R4 in internal/source): a read or
	// subscribe stamps its subscription with replies+1, the reply that will
	// carry it. Written by reply, on the dispatch goroutine only; the
	// multi-key fan-out reads it from goroutines that goroutine starts.
	replies uint64

	// lastPush and gapEWMA drive the adaptive flush window: the enqueue
	// time of the last value-initiated push (UnixNano) and the EWMA of the
	// gaps between successive enqueues, both written under connMu by Set's
	// push loop.
	lastPush atomic.Int64
	gapEWMA  atomic.Int64

	// scratch is the read loop's per-request working storage, reused
	// across requests; only the read-loop goroutine touches it.
	scratch reqScratch
}

// reqScratch groups a request's keys by the shard they hash to without
// allocating: byShard is indexed by shard and holds key positions, shardSet
// lists the touched shards.
type reqScratch struct {
	shardSet []int
	byShard  [][]int
}

// observePush feeds one push-enqueue timestamp into the connection's
// inter-push gap EWMA (alpha = 1/8). Gaps are clamped to twice the flush
// cap before entering the EWMA: beyond that a gap only means "quiet", and
// an unclamped idle period (seconds) would swamp the average and keep the
// window closed for dozens of pushes into the very burst coalescing exists
// for. The clamp still lets sustained quiet drive the EWMA past the cap
// (closing the window) within a handful of observations.
func (c *clientConn) observePush(now int64, maxFlush time.Duration) {
	last := c.lastPush.Swap(now)
	if last == 0 {
		return
	}
	gap := now - last
	if gap < 0 {
		gap = 0
	}
	if lim := 2 * int64(maxFlush); gap > lim {
		gap = lim
	}
	old := c.gapEWMA.Load()
	if old == 0 {
		c.gapEWMA.Store(gap)
		return
	}
	c.gapEWMA.Store(old + (gap-old)/8)
}

// flushWindow returns how long the writer may hold a pending push run to
// coalesce successors: the static cap shrunk by the expected wait for the
// next push (the gap EWMA), clamped to [0, max]. A bursty connection (gaps
// near zero) keeps nearly the whole window; a quiet one (gaps at or beyond
// the cap) flushes immediately and pays no added latency. Before any gap
// has been observed the full cap applies, matching the static behavior.
func (c *clientConn) flushWindow(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	ewma := time.Duration(c.gapEWMA.Load())
	if ewma == 0 {
		return max
	}
	if ewma >= max {
		return 0
	}
	return max - ewma
}

// New creates a server. It panics on invalid Params (configuration error).
func New(cfg Config) *Server {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	if cfg.InitialWidth < 0 {
		panic("server: negative initial width")
	}
	mode := cfg.ConnMode
	switch mode {
	case "":
		mode = ConnModeGoroutine
	case ConnModeGoroutine, ConnModePoller:
	default:
		panic(fmt.Sprintf("server: unknown ConnMode %q", cfg.ConnMode))
	}
	eng := engine.New(engine.Config{
		Shards: cfg.Shards, Params: cfg.Params, InitialWidth: cfg.InitialWidth, Seed: cfg.Seed,
	}, func(int) hostState { return hostState{} })
	s := &Server{
		cfg:      cfg,
		connMode: mode,
		eng:      eng,
		conns:    make(map[int]*clientConn),
		queries:  cq.NewEngine(),
	}
	if mode == ConnModePoller && !netpoll.Supported() {
		s.connMode = ConnModeGoroutine
		s.logf("server: netpoll unsupported on this platform; using goroutine connection core")
	}
	return s
}

// Shards returns the number of lock shards the server was built with.
func (s *Server) Shards() int { return len(s.eng.Shards()) }

// ConnMode reports the connection core actually in use — the configured
// mode, downgraded to ConnModeGoroutine when the poller is unavailable.
// Meaningful after Listen.
func (s *Server) ConnMode() string { return s.connMode }

// SetInitial seeds a value. On a key no client subscribes to — the normal
// case, before the listener opens — nothing is pushed; on a live key it is an
// update exactly like Set (see engine.Set), so no held interval is left
// without its value.
func (s *Server) SetInitial(key int, v float64) { s.Set(key, v) }

// Set updates a value, pushing value-initiated refreshes to every client
// whose interval the update invalidates. It returns the number of refreshes
// pushed. Only the key's shard is locked; the frames are enqueued under that
// lock so each client sees the key's intervals in generation order; the
// journal commit — the part that may fsync — waits until it is released.
func (s *Server) Set(key int, v float64) int {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	refreshes, tok := s.eng.Set(sh, key, v)
	if len(refreshes) == 0 {
		sh.Mu.Unlock()
		s.eng.Commit(sh, tok)
		return 0
	}
	// One connMu acquisition for the whole batch: taking it per refresh
	// would put a global lock back on the sharded hot path. push is a
	// non-blocking enqueue, so holding connMu across the loop is cheap.
	var now int64
	if s.cfg.FlushInterval > 0 {
		now = time.Now().UnixNano()
	}
	var steers []cq.Steer
	s.connMu.Lock()
	for _, r := range refreshes {
		c, ok := s.conns[r.CacheID]
		if !ok {
			// No such connection: the subscription is either a disconnected
			// client's (reaped by dropClient eventually) or a standing
			// query's, held under an engine-allocated cache ID. Observing
			// under connMu serializes concurrent Sets on a query's member
			// keys, so its QueryUpdates are enqueued in answer order.
			steers = s.observeCQLocked(r, true, steers)
			continue
		}
		if now != 0 {
			c.observePush(now, s.cfg.FlushInterval)
		}
		m := netproto.GetRefresh()
		*m = netproto.Refresh{
			ID:            0,
			Key:           int64(r.Key),
			Kind:          netproto.KindValueInitiated,
			Value:         r.Value,
			Lo:            r.Interval.Lo,
			Hi:            r.Interval.Hi,
			OriginalWidth: r.OriginalWidth,
		}
		s.push(c, m, c.flushWindow(s.cfg.FlushInterval))
	}
	s.connMu.Unlock()
	sh.Mu.Unlock()
	s.eng.Commit(sh, tok)
	if len(steers) > 0 {
		s.applySteers(steers)
	}
	return len(refreshes)
}

// observeCQLocked folds one refresh addressed to an engine-owned cache ID
// into its standing query and, when the tight aggregate left the answer
// envelope the client holds, pushes the replacement envelope as a
// QueryUpdate to the owning connection — a full answer, so under congestion
// it parks latest-wins per query like a Refresh per key, and it never waits
// out a flush window. allowSteer is set for value-initiated refreshes and
// clear for the forced reads of a budget re-split (see cq.Engine.Observe).
// The caller holds the key's shard lock and connMu; steers the engine's
// budget re-split requested are appended for the caller to apply after
// releasing the shard lock.
func (s *Server) observeCQLocked(r source.Refresh, allowSteer bool, steers []cq.Steer) []cq.Steer {
	up, emit, st := s.queries.Observe(r.CacheID, r.Key, r.Interval, r.Value, allowSteer)
	s.cqObserves++
	if emit {
		s.cqUpdates++
		if c, ok := s.conns[up.Owner]; ok {
			m := netproto.GetQueryUpdate()
			*m = netproto.QueryUpdate{QID: up.QID, Value: up.Value, Lo: up.Iv.Lo, Hi: up.Iv.Hi}
			s.push(c, m, 0)
		}
	}
	return append(steers, st...)
}

// applySteers re-caps a standing query's per-key width shares after a budget
// re-split. Steers arrive shrinks-first from the engine and each is applied
// under its key's shard lock alone, so the sum of live caps never exceeds
// the query's budget at any instant. A key whose shipped interval is wider
// than its tightened cap is force-read to bring it under; the resulting
// refresh folds back into the engine with steering disabled, bounding the
// recursion at one level.
func (s *Server) applySteers(steers []cq.Steer) {
	for _, st := range steers {
		sh := s.eng.For(st.Key)
		sh.Mu.Lock()
		cur, ok := sh.Src.SetWidthCap(st.CacheID, st.Key, st.Target)
		if ok && cur > st.Target {
			r := sh.Src.Read(st.CacheID, st.Key)
			s.connMu.Lock()
			s.observeCQLocked(r, false, nil)
			s.connMu.Unlock()
		}
		sh.Mu.Unlock()
	}
}

// Value returns the current exact value, read under the key's shard lock: it
// waits out a request in flight on that shard, and no caller sits on a
// request path (hosts seed through it before Listen and report through it
// after the run).
func (s *Server) Value(key int) (float64, bool) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	return sh.Src.Value(key)
}

// observeCost folds one measured query-initiated refresh latency into the
// shard's cost EWMA (alpha = 1/8, nanoseconds). The caller holds the shard
// lock.
func observeCost(sh *lockShard, d time.Duration) {
	ns := int64(d)
	if ns <= 0 {
		ns = 1 // clock granularity floor: a measured refresh is never free
	}
	if sh.Host.cost == 0 {
		sh.Host.cost = ns
		return
	}
	sh.Host.cost += (ns - sh.Host.cost) / 8
}

// RefreshCost returns the server's measured per-key refresh latency: the
// mean of the shards' cost EWMAs, skipping shards that have served no reads
// yet. Zero means no measurement exists.
func (s *Server) RefreshCost() time.Duration { return s.Stats().RefreshCost }

// Clients returns the number of connected caches.
func (s *Server) Clients() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// ShardStats describes one shard's occupancy: how many keys it hosts, how
// many (client, key) subscriptions it maintains, and how many of those are
// muted — adapting their widths but pushing nothing, because the client said
// it does not hold the key. Skew across shards is the signal the per-shard
// eviction question in ROADMAP.md needs.
type ShardStats struct {
	Keys          int
	Subscriptions int
	Muted         int
}

// Stats is a snapshot of the server's occupancy and push backpressure.
type Stats struct {
	Clients  int
	PerShard []ShardStats
	// PushOverflows counts value-initiated refreshes diverted into a
	// connection's merge buffer because its queue was congested;
	// PushMerges counts later refreshes folded into an already-diverted
	// entry (interval union, latest value). Before the merge buffer these
	// would all have been dropped outright.
	PushOverflows int
	PushMerges    int
	// RefreshCost is the measured per-key query-initiated refresh latency
	// (mean of the shards' EWMAs); zero until the server has served reads.
	RefreshCost time.Duration
	// Queries is the number of registered standing continuous queries.
	Queries int
	// QueryObserves counts the refreshes handed to the continuous-query
	// engine (member-key escapes and re-split reads, in process) and
	// QueryUpdates the answers it had pushed to clients; both only grow.
	// Their ratio is the share of key refreshes the answer envelopes let
	// through to the wire.
	QueryObserves int
	QueryUpdates  int
	// Mutes counts the keys clients announced as not held and the server
	// stopped pushing; MutesRefused the announcements it declined because a
	// reply carrying the key was still on its way to the client (or the key
	// was never subscribed). Both only grow.
	Mutes        int
	MutesRefused int
}

// Stats reports per-shard occupancy and the server's counters. It locks one
// shard at a time and reads that shard's source and host state directly, so
// the snapshot is per-shard-consistent rather than global, and a call waits
// behind whatever request holds each shard.
func (s *Server) Stats() Stats {
	st := Stats{
		PerShard:      make([]ShardStats, s.Shards()),
		PushOverflows: int(s.pushStats.overflows.Load()),
		PushMerges:    int(s.pushStats.merges.Load()),
		Queries:       s.queries.Queries(),
	}
	s.connMu.Lock()
	st.Clients, st.QueryObserves, st.QueryUpdates = len(s.conns), s.cqObserves, s.cqUpdates
	s.connMu.Unlock()
	var costSum, costN int64
	for i, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		st.PerShard[i] = ShardStats{
			Keys:          sh.Src.Keys(),
			Subscriptions: sh.Src.Subscriptions(),
			Muted:         sh.Src.Muted(),
		}
		st.Mutes += sh.Host.mutes
		st.MutesRefused += sh.Host.refused
		if sh.Host.cost > 0 {
			costSum += sh.Host.cost
			costN++
		}
		sh.Mu.Unlock()
	}
	if costN > 0 {
		st.RefreshCost = time.Duration(costSum / costN)
	}
	return st
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	if s.connMode == ConnModePoller && s.poll == nil {
		core, perr := s.startPollCore()
		if perr != nil {
			s.connMode = ConnModeGoroutine
			s.logf("server: poller core unavailable (%v); using goroutine connection core", perr)
		} else {
			s.poll = core
		}
	}
	if fi := s.cfg.FlushInterval; fi > 0 && s.wheel == nil {
		// Tick at a quarter of the window for acceptable slack, clamped so
		// pathological configs neither spin the wheel nor fire windows
		// with multi-tick error.
		tick := min(max(fi/4, 100*time.Microsecond), 5*time.Millisecond)
		s.wheel = netpoll.NewWheel(tick, 64)
	}
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	s.serveWG.Add(1)
	go s.acceptLoop(ln.(*net.TCPListener))
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln *net.TCPListener) {
	defer s.serveWG.Done()
	for {
		conn, err := ln.AcceptTCP()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.nextID++
		c := &clientConn{
			id:   s.nextID,
			conn: conn,
			done: make(chan struct{}),
		}
		c.ctx, c.cancel = context.WithCancel(context.Background())
		c.q.stats = &s.pushStats
		c.timer.Fn = func() { s.schedule(c) }
		if s.poll != nil {
			// Attach before the registry insert so every registered conn
			// has its poller state (c.pc is immutable once visible); the
			// descriptor is armed only after the insert, so a readiness
			// event can never beat the registry.
			if err := s.poll.attach(c); err != nil {
				s.connMu.Unlock()
				s.logf("client %d: poller attach: %v", c.id, err)
				c.cancel()
				conn.Close()
				continue
			}
		} else {
			c.kick = make(chan struct{}, 1)
			c.wake = func() {
				select {
				case c.kick <- struct{}{}:
				default:
				}
			}
		}
		s.conns[c.id] = c
		s.connMu.Unlock()
		if s.poll != nil {
			if err := s.poll.arm(c); err != nil {
				s.logf("client %d: poller register: %v", c.id, err)
				s.dropClient(c)
			}
			continue
		}
		s.serveWG.Add(2)
		go s.writeLoop(c)
		go s.readLoop(c)
	}
}

// fanoutThreshold is the minimum key count before a multi-key request is
// fanned out across per-shard goroutines; below it the spawn/join overhead
// exceeds the per-key source work and the sequential loop wins.
const fanoutThreshold = 32

// errUnsupported builds the error frame for a request the server will not
// serve.
func errUnsupported(id uint64, key int64, msg string) netproto.Message {
	return &netproto.Error2{ID: id, Code: netproto.CodeUnsupported, Key: key, Msg: msg}
}

// errUnknownKey builds the typed unknown-key error frame, which the client's
// errors.Is/As resolves against the apcache taxonomy across the wire.
func errUnknownKey(id uint64, key int64) netproto.Message {
	return &netproto.Error2{ID: id, Code: netproto.CodeUnknownKey, Key: key, Msg: fmt.Sprintf("unknown key %d", key)}
}

// isPush reports whether m is a value-initiated push (as opposed to the
// response to a request), the only traffic the writer may hold back to
// coalesce.
func isPush(m netproto.Message) bool {
	r, ok := m.(*netproto.Refresh)
	return ok && r.ID == 0 && r.Kind == netproto.KindValueInitiated
}

// connWriter is a connection's flush state, owned by whichever goroutine
// holds its drain slot: the batch being flushed, the frame-assembly buffer,
// the scratch for coalescing push runs, and the tail of a flush a
// non-blocking write could not finish. One flush encodes the whole batch
// into buf and hands it to the kernel with a single write; nothing here
// allocates in steady state.
type connWriter struct {
	batch []netproto.Message
	buf   []byte
	pend  []byte
	run   []netproto.RefreshItem
	rb    netproto.RefreshBatch // reused RefreshBatch envelope for push runs
	one   netproto.Refresh      // reused envelope for singleton pushes
}

// writeLoop is the goroutine driver's drainer: it sleeps until the
// connection's drain slot is claimed, then flushes with writes that may
// block.
func (s *Server) writeLoop(c *clientConn) {
	defer s.serveWG.Done()
	for {
		select {
		case <-c.kick:
			s.drain(c, writeBlocking)
		case <-c.done:
			return
		}
	}
}

// appendFrames encodes a drained run of messages into w.buf (reset first)
// and releases each message back to its pool. Consecutive value-initiated
// pushes are coalesced into RefreshBatch frames; everything else passes
// through unchanged. Message order — in particular per-key refresh order —
// is preserved exactly.
func (w *connWriter) appendFrames(msgs []netproto.Message) error {
	w.buf = w.buf[:0]
	var err error
	w.run = w.run[:0]
	flushRun := func() error {
		switch len(w.run) {
		case 0:
			return nil
		case 1:
			// A lone push is cheaper as a plain Refresh frame. w.one and
			// w.rb are writer-owned envelopes, never released to the pools.
			one := w.run[0]
			w.run = w.run[:0]
			w.one = netproto.Refresh{
				ID: 0, Key: one.Key, Kind: one.Kind,
				Value: one.Value, Lo: one.Lo, Hi: one.Hi, OriginalWidth: one.OriginalWidth,
			}
			w.buf, err = netproto.AppendFrame(w.buf, &w.one)
			return err
		default:
			w.rb.ID = 0
			w.rb.Items = w.run
			w.buf, err = netproto.AppendFrame(w.buf, &w.rb)
			w.rb.Items = nil
			w.run = w.run[:0]
			return err
		}
	}
	for _, m := range msgs {
		if r, ok := m.(*netproto.Refresh); ok && isPush(r) {
			w.run = append(w.run, r.Item())
			netproto.Release(r)
			continue
		}
		if err := flushRun(); err != nil {
			return err
		}
		w.buf, err = netproto.AppendFrame(w.buf, m)
		netproto.Release(m)
		if err != nil {
			return err
		}
	}
	return flushRun()
}

// readBufSize is the read loop's buffer: what the bufio.Reader it replaced
// held, so a connection's footprint is unchanged. A larger frame is carried
// across reads by the decoder.
const readBufSize = 4 << 10

// readLoop is the goroutine driver's reader: blocking reads into one buffer,
// fed to the same netproto.StreamDecoder the poller feeds. Every decoded
// message is valid only for its dispatch call, which is safe because all
// handlers consume their request synchronously (multi-key fan-out joins
// before returning) and responses are built as separate pooled messages.
func (s *Server) readLoop(c *clientConn) {
	defer s.serveWG.Done()
	defer s.dropClient(c)
	dec := netproto.NewStreamDecoder()
	buf := make([]byte, readBufSize)
	dispatch := func(m netproto.Message) error { return s.dispatch(c, m) }
	for {
		n, err := c.conn.Read(buf)
		if ferr := dec.Feed(buf[:n], dispatch); ferr != nil {
			err = ferr
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("client %d: read: %v", c.id, err)
			}
			return
		}
	}
}

// dispatch routes one decoded request to its handler. Both drivers call it —
// the goroutine driver from the connection's read loop, the poller from an
// event loop — under the same ownership rule: one goroutine per
// connection at a time, and the message is consumed before it returns. A
// non-nil error means the connection was refused at the handshake; the
// caller tears it down.
func (s *Server) dispatch(c *clientConn, msg netproto.Message) error {
	if !c.greeted {
		return s.handshake(c, msg)
	}
	switch m := msg.(type) {
	case *netproto.Subscribe:
		s.handleKeyed(c, m.ID, m.Key, false)
	case *netproto.Read:
		s.handleKeyed(c, m.ID, m.Key, true)
	case *netproto.Ping:
		s.reply(c, &netproto.Pong{ID: m.ID})
	case *netproto.ReadMulti:
		// The tail goes first: a key both muted and read ends up live.
		s.handleMute(c, m.Seen, m.Mute)
		s.handleMulti(c, m.ID, m.Keys, true)
	case *netproto.Mute:
		s.handleMute(c, m.Seen, m.Keys)
	case *netproto.SubscribeMulti:
		s.handleMulti(c, m.ID, m.Keys, false)
	case *netproto.RegisterQuery:
		s.handleRegisterQuery(c, m)
	case *netproto.UnregisterQuery:
		s.handleUnregisterQuery(c, m)
	default:
		s.reply(c, errUnsupported(0, 0, fmt.Sprintf("unexpected %T", msg)))
	}
	return nil
}

// handshake serves a connection's first frame, the one place the protocol
// version is checked. A Hello at the server's version or above is acked at
// the server's version (a newer client decides for itself whether to stay);
// a lower offer, or a request before any Hello, is refused.
func (s *Server) handshake(c *clientConn, msg netproto.Message) error {
	m, ok := msg.(*netproto.Hello)
	if !ok {
		return s.refuse(c, 0, fmt.Sprintf("%T before Hello", msg))
	}
	if m.Version < netproto.Version {
		return s.refuse(c, m.ID, fmt.Sprintf("protocol version %d offered, this server speaks only %d", m.Version, netproto.Version))
	}
	c.greeted = true
	s.reply(c, &netproto.HelloAck{ID: m.ID, Version: netproto.Version})
	return nil
}

// refuse answers an ungreeted connection with Error2{CodeUnsupported} and
// returns the error that makes the caller close it. Nothing can be queued
// for a connection that has not been greeted, so the frame is written to the
// socket directly, ahead of the close, instead of racing it through the
// writer.
func (s *Server) refuse(c *clientConn, id uint64, reason string) error {
	if frame, err := netproto.AppendFrame(nil, errUnsupported(id, 0, reason)); err == nil {
		c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		c.conn.Write(frame)
	}
	return errors.New("handshake refused: " + reason)
}

// handleKeyed serves Read (read=true) and Subscribe (read=false): lock the
// key's shard, compute the Refresh, and enqueue it under the lock (per-key
// refresh order).
func (s *Server) handleKeyed(c *clientConn, id uint64, key int64, read bool) {
	sh := s.eng.For(int(key))
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	if _, ok := sh.Src.Value(int(key)); !ok {
		s.reply(c, errUnknownKey(id, key))
		return
	}
	var r source.Refresh
	kind := netproto.KindInitial
	if read {
		start := time.Now()
		r = sh.Src.ReadMarked(c.id, int(key), c.replies+1)
		observeCost(sh, time.Since(start))
		kind = netproto.KindQueryInitiated
		// Journal the learned width and commit it before the lock is
		// released — with WALFsync=always an exact read therefore pays its
		// fsync inside the shard section. That is the price of never
		// replying with a width shrink a crash would forget; the
		// interval/none policies keep the call a buffered memcpy.
		s.eng.Commit(sh, s.eng.StageWidth(sh, int(key), r.OriginalWidth))
	} else {
		r = sh.Src.SubscribeMarked(c.id, int(key), c.replies+1)
	}
	resp := netproto.GetRefresh()
	*resp = netproto.Refresh{
		ID:            id,
		Key:           key,
		Kind:          kind,
		Value:         r.Value,
		Lo:            r.Interval.Lo,
		Hi:            r.Interval.Hi,
		OriginalWidth: r.OriginalWidth,
	}
	s.reply(c, resp)
}

// unknownKeyLocked returns the first of keys no source hosts. The caller holds
// every involved shard's lock, so a multi-key request is all-or-nothing: it is
// refused before its first subscription or read, or every key exists for as
// long as it runs (keys are never deleted).
func (s *Server) unknownKeyLocked(keys []int64) (int64, bool) {
	for _, k := range keys {
		if _, ok := s.eng.For(int(k)).Src.Value(int(k)); !ok {
			return k, true
		}
	}
	return 0, false
}

// shardSetFor fills c's scratch with the sorted distinct shard indices the
// keys hash to, plus the key positions grouped by shard (so per-shard
// workers touch each key exactly once). The returned slices are valid until
// the connection's next multi-key request; only the read loop calls this.
func (s *Server) shardSetFor(c *clientConn, keys []int64) (sorted []int, byShard [][]int) {
	sc := &c.scratch
	if sc.byShard == nil {
		sc.byShard = make([][]int, s.Shards())
	}
	for _, i := range sc.shardSet {
		sc.byShard[i] = sc.byShard[i][:0]
	}
	sc.shardSet = sc.shardSet[:0]
	for pos, k := range keys {
		i := s.eng.For(int(k)).Idx
		if len(sc.byShard[i]) == 0 {
			sc.shardSet = append(sc.shardSet, i)
		}
		sc.byShard[i] = append(sc.byShard[i], pos)
	}
	sort.Ints(sc.shardSet)
	return sc.shardSet, sc.byShard
}

// handleMute applies a client's announcement that it does not hold keys: each
// one's subscription is muted — Set keeps adapting its width and ships
// nothing — unless a reply numbered above seen carried the key, in which case
// the client may hold it after all by the time that reply lands and the mute
// is refused (internal/source states the protocol and why it is safe). Keys
// are grouped by shard so each shard lock is taken once; there is no
// response.
func (s *Server) handleMute(c *clientConn, seen uint64, keys []int64) {
	if len(keys) == 0 {
		return
	}
	shardSet, byShard := s.shardSetFor(c, keys)
	for _, i := range shardSet {
		sh := s.eng.Shards()[i]
		sh.Mu.Lock()
		for _, pos := range byShard[i] {
			if sh.Src.Mute(c.id, int(keys[pos]), seen) {
				sh.Host.mutes++
			} else {
				sh.Host.refused++
			}
		}
		sh.Mu.Unlock()
	}
}

// handleMulti serves ReadMulti (read=true) and SubscribeMulti (read=false):
// it locks every involved shard in ascending order, validates the whole key
// set, fans the per-shard work out across goroutines, and enqueues a single
// RefreshBatch — still under the locks, so no concurrent Set can interleave
// a newer push before this response for any of the keys.
func (s *Server) handleMulti(c *clientConn, id uint64, keys []int64, read bool) {
	shardSet, byShard := s.shardSetFor(c, keys)
	s.eng.LockSet(shardSet)
	defer s.eng.UnlockSet(shardSet)
	if k, ok := s.unknownKeyLocked(keys); ok {
		s.reply(c, errUnknownKey(id, k))
		return
	}
	rb := netproto.GetRefreshBatch()
	rb.ID = id
	if cap(rb.Items) < len(keys) {
		rb.Items = make([]netproto.RefreshItem, len(keys))
	} else {
		rb.Items = rb.Items[:len(keys)]
	}
	items := rb.Items
	// A connection that dies mid-request cancels its context (dropClient);
	// the fill loops poll it per key so a large fan-out stops generating
	// source reads for a dead peer instead of running to completion.
	dying := c.ctx.Done()
	mark := c.replies + 1 // the RefreshBatch below
	fill := func(shardIdx int) {
		sh := s.eng.Shards()[shardIdx]
		var start time.Time
		if read {
			start = time.Now()
		}
		var tok uint64
		for _, pos := range byShard[shardIdx] {
			select {
			case <-dying:
				return
			default:
			}
			k := keys[pos]
			var r source.Refresh
			kind := netproto.KindInitial
			if read {
				r = sh.Src.ReadMarked(c.id, int(k), mark)
				kind = netproto.KindQueryInitiated
				tok = max(tok, s.eng.StageWidth(sh, int(k), r.OriginalWidth))
			} else {
				r = sh.Src.SubscribeMarked(c.id, int(k), mark)
			}
			items[pos] = netproto.RefreshItem{
				Key:           k,
				Kind:          kind,
				Value:         r.Value,
				Lo:            r.Interval.Lo,
				Hi:            r.Interval.Hi,
				OriginalWidth: r.OriginalWidth,
			}
		}
		// One commit for the shard's whole slice, under the lock like the
		// single-key read's.
		s.eng.Commit(sh, tok)
		if n := len(byShard[shardIdx]); read && n > 0 {
			// Amortize the batch's timer reads: one measurement for the
			// shard's whole slice, folded in at per-key granularity.
			observeCost(sh, time.Since(start)/time.Duration(n))
		}
	}
	if len(shardSet) == 1 || len(keys) < fanoutThreshold {
		for _, i := range shardSet {
			fill(i)
		}
	} else {
		// Fan out: each goroutine works one shard's slice of the key set.
		// The shard locks are already held, so the goroutines touch
		// disjoint state; items positions are disjoint by construction.
		var wg sync.WaitGroup
		for _, i := range shardSet {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fill(i)
			}(i)
		}
		wg.Wait()
	}
	select {
	case <-dying:
		// The fills bailed early, so items may be partially filled; the
		// peer is gone anyway. Subscriptions already created are reaped by
		// dropClient's UnsubscribeCache sweep.
		netproto.Release(rb)
		return
	default:
	}
	s.reply(c, rb)
}

// handleRegisterQuery installs a standing continuous query: the server
// subscribes the engine — acting as one more cache client, under a freshly
// allocated cache ID — to every member key with an equal-split
// width cap, force-reads each key for an exact seed, registers the
// aggregate with the engine, and acks with a QueryUpdate carrying the
// initial answer. The seed reads and the ack happen under all member
// shards' locks, so no concurrent Set can slip a member update between the
// seeded answer and the ack.
func (s *Server) handleRegisterQuery(c *clientConn, m *netproto.RegisterQuery) {
	seen := make(map[int64]struct{}, len(m.Keys))
	for _, k := range m.Keys {
		if _, dup := seen[k]; dup {
			s.reply(c, errUnsupported(m.ID, k, fmt.Sprintf("duplicate key %d in query", k)))
			return
		}
		seen[k] = struct{}{}
	}
	shardSet, _ := s.shardSetFor(c, m.Keys)
	s.eng.LockSet(shardSet)
	if k, ok := s.unknownKeyLocked(m.Keys); ok {
		s.reply(c, errUnknownKey(m.ID, k))
		s.eng.UnlockSet(shardSet)
		return
	}
	s.connMu.Lock()
	s.nextID++
	qcid := s.nextID // cache IDs and connection IDs share one sequence, so they never collide
	s.connMu.Unlock()
	spec := cq.Spec{Owner: c.id, QID: m.QID, Kind: cq.AggKind(m.Kind), Delta: m.Delta, Keys: make([]int, len(m.Keys))}
	for i, k := range m.Keys {
		spec.Keys[i] = int(k)
	}
	t0 := cq.InitialTarget(spec.Kind, spec.Delta, len(spec.Keys))
	ivs := make([]interval.Interval, len(spec.Keys))
	vals := make([]float64, len(spec.Keys))
	for i, k := range spec.Keys {
		sh := s.eng.For(k)
		sh.Src.Subscribe(qcid, k)
		sh.Src.SetWidthCap(qcid, k, t0)
		r := sh.Src.Read(qcid, k) // query-initiated: exact seed, already under the cap
		ivs[i], vals[i] = r.Interval, r.Value
	}
	up, replaced, wasReplaced := s.queries.Register(spec, qcid, ivs, vals)
	s.connMu.Lock()
	_, alive := s.conns[c.id]
	if alive {
		ack := netproto.GetQueryUpdate()
		*ack = netproto.QueryUpdate{ID: m.ID, QID: m.QID, Value: up.Value, Lo: up.Iv.Lo, Hi: up.Iv.Hi}
		s.reply(c, ack)
	}
	s.connMu.Unlock()
	s.eng.UnlockSet(shardSet)
	if !alive {
		// The connection died mid-registration. dropClient's engine sweep
		// may have run before our Register made the query visible, so tear
		// it down here; if the sweep did catch it, reaping twice is benign.
		if d, ok := s.queries.Unregister(c.id, m.QID); ok {
			s.reapQuery(d)
		} else {
			s.reapQuery(cq.Dropped{CacheID: qcid, Keys: spec.Keys})
		}
	}
	if wasReplaced {
		s.reapQuery(replaced)
	}
}

// handleUnregisterQuery tears down a standing query. Like Unsubscribe it is
// fire-and-forget; an unknown QID is ignored (the unregister may race the
// connection's own teardown).
func (s *Server) handleUnregisterQuery(c *clientConn, m *netproto.UnregisterQuery) {
	if d, ok := s.queries.Unregister(c.id, m.QID); ok {
		s.reapQuery(d)
	}
}

// reapQuery removes a torn-down standing query's source-side subscriptions,
// which live under the query's own cache ID and are therefore missed by the
// per-connection UnsubscribeCache sweep.
func (s *Server) reapQuery(d cq.Dropped) {
	for _, k := range d.Keys {
		sh := s.eng.For(k)
		sh.Mu.Lock()
		sh.Src.Unsubscribe(d.CacheID, k)
		sh.Mu.Unlock()
	}
}

// dropClient removes a disconnected client and its subscriptions. It is the
// single teardown path, always reached on a goroutine shutdown joins: the
// driver's reader on end-of-stream (which is also how sever lands here), the
// accept loop, or shutdown itself. Idempotent; concurrent callers race
// benignly on the registry check.
func (s *Server) dropClient(c *clientConn) {
	// Cancel before anything else: in-flight fan-out work for this peer
	// (handleMulti) polls the context and bails, releasing the shard locks
	// the subscription sweep below needs.
	c.cancel()
	s.connMu.Lock()
	if _, ok := s.conns[c.id]; !ok {
		s.connMu.Unlock()
		return
	}
	delete(s.conns, c.id)
	close(c.done)
	s.connMu.Unlock()
	if c.pc != nil {
		// Leave the epoll set while the descriptor number is still ours.
		s.poll.unregister(c)
	}
	c.conn.Close()
	if s.wheel != nil {
		s.wheel.Cancel(&c.timer)
	}
	// No new traffic can arrive — the connection is out of the registry —
	// so release whatever is still queued or parked.
	c.q.close()
	// Tear down the connection's standing queries before the subscription
	// sweep: their source subscriptions live under engine-allocated cache
	// IDs the per-connection sweep cannot see.
	for _, d := range s.queries.DropOwner(c.id) {
		s.reapQuery(d)
	}
	// Reap the client's subscriptions shard by shard so Set stops preparing
	// refreshes for it. (Within the protocol this is connection teardown,
	// not the cache-eviction notification the paper's algorithm avoids.)
	for _, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		sh.Src.UnsubscribeCache(c.id)
		sh.Mu.Unlock()
	}
}

// Close shuts the server down immediately and waits for its goroutines.
// Coalesced pushes still queued or parked for delivery are dropped with the
// connections; Shutdown is the graceful variant that flushes them first.
func (s *Server) Close() error {
	return s.shutdown(nil)
}

// Shutdown drains the server gracefully: the listener closes (no new
// connections), every connection's queued and coalesced pushes are flushed
// to the kernel — including merge-buffer entries parked under backpressure
// and open flush windows, on either connection core — and only then are the
// connections dropped and the goroutines joined. ctx bounds the drain: on
// expiry the remaining traffic is abandoned, teardown proceeds exactly as
// in Close, and ctx's error is returned. A nil ctx drains without bound.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.shutdown(ctx)
}

// shutdown is the shared teardown: nil ctx skips the drain phase (Close
// semantics). Only the first caller drains and stops the poll core;
// followers still wait for the goroutines, so every returned call means a
// fully stopped server.
func (s *Server) shutdown(ctx context.Context) error {
	s.connMu.Lock()
	wasClosed := s.closed
	s.closed = true
	ln := s.ln
	conns := make([]*clientConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	var err error
	if ctx != nil && !wasClosed {
		err = s.drainConns(ctx, conns)
	}
	if !wasClosed {
		// The drain is not complete until the journal covers everything the
		// connections were just promised: flush it before they drop, so the
		// recovered server serves exactly the final delivered values.
		if werr := s.eng.Sync(); werr != nil && err == nil {
			err = werr
		}
	}
	for _, c := range conns {
		s.dropClient(c)
	}
	if s.poll != nil && !wasClosed {
		// Every connection is out of the registry (the accept loop refuses
		// new ones once closed is set), so no goroutine can schedule new
		// work on the core; shut its loops down and join them.
		s.poll.shutdown()
	}
	s.serveWG.Wait()
	if s.wheel != nil && !wasClosed {
		s.wheel.Stop()
	}
	if !wasClosed {
		if werr := s.eng.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// drainConns blocks until every connection's pipeline has emptied into the
// kernel — queue, merge buffer, batch in flight — or ctx is done. Open flush
// windows are ended first so held pushes flush without waiting for their
// expiry; a connection that dies mid-drain stops counting as pending.
func (s *Server) drainConns(ctx context.Context, conns []*clientConn) error {
	for _, c := range conns {
		s.schedule(c)
	}
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	pending := func(c *clientConn) bool { return c.q.pending() }
	for slices.ContainsFunc(conns, pending) {
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
