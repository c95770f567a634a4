// Package server implements a networked data source: it hosts exact numeric
// values, accepts cache clients over TCP, runs one adaptive width controller
// per (client, key) subscription, pushes value-initiated refreshes when
// updates escape cached intervals, and answers exact reads (query-initiated
// refreshes). Every connection runs the one delivery pipeline in pipeline.go
// under one of two I/O drivers (Config.ConnMode): a read goroutine per
// connection, or the shared event-driven core in poller.go. Under either, a
// reply leaves from the goroutine that decoded its request, other traffic
// from a drainer goroutine started for the claimed drain slot.
//
// The key space is partitioned over Config.Shards lock shards (default
// scaled to GOMAXPROCS) by internal/engine, which owns each shard's
// source.Source, random stream, mutex and journal staging; this package is
// the far side of a refresh — the connection push and the standing-query
// fold — called under the shard lock it takes, and keeps no copy of what the
// source holds: a key exists if the shard's source has it, and Stats counts
// what the sources count. Requests from different connections contend only
// when they touch keys on the same shard. Beneath a shard lock come the
// registry's read-write lock, the standing-query lock and a connection's
// queue lock, in that order (see connMu), so the ordering is deadlock-free,
// and Sets exclude each other only on a shard, a queue or a standing query.
// A key's pushes are enqueued while its shard lock is held, which guarantees
// each client observes that key's intervals in generation order — installing
// them in arrival order preserves the validity invariant. Requests (ReadMulti,
// SubscribeMulti; one key is a list of one) hold all their shards' locks,
// acquired in ascending index order, while the single response frame is
// enqueued, so the same ordering guarantee extends to them.
//
// A connection must open with Hello at the server's protocol version (see
// internal/netproto); a lower offer, or any other first frame, is answered
// with Error2{CodeUnsupported} and a close. The protocol batches at both ends
// of a connection: the request loop decodes a multi-key frame, serves its
// keys one shard after another, and replies with one frame; the writer
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
// frames decoded in place in the read buffer), a response is encoded into
// its connection's queue as it is enqueued and a push travels as a value, and
// each flush hands everything queued to the kernel with a single conn.Write
// call. The flush window adapts per connection: an EWMA of observed
// inter-push gaps shrinks the configured FlushInterval so quiet connections
// flush immediately while bursty ones coalesce aggressively.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
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

// maxBatch caps the pushes one RefreshBatch frame carries and the run a
// flush window holds: a held push run flushes at this size.
const maxBatch = 128

// Connection-core selectors for Config.ConnMode.
const (
	// ConnModeGoroutine serves each connection with a read goroutine that
	// also flushes the replies to what it read — the classic core, and the
	// benchmark baseline.
	ConnModeGoroutine = "goroutine"
	// ConnModePoller serves every connection from a shared event-driven
	// core: a small set of event loops owns read readiness through epoll
	// and serves reads, decode, dispatch, and inline reply flushes; a
	// flush that may block gets a drainer goroutine, as pushes do under
	// either mode. An idle connection costs a registered descriptor plus
	// its state instead of a goroutine stack.
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
	// "") keeps a dedicated read goroutine per connection; ConnModePoller
	// multiplexes all connections over the event-driven core in
	// internal/netpoll. On platforms without a poller implementation (or
	// when the poller fails to start) the server logs the downgrade and
	// falls back to the goroutine core, preserving today's behavior.
	ConnMode string
	// WALDir, when non-empty, makes Open journal the hosted values to a
	// write-ahead log under this directory; its checkpoints also write the
	// per-key learned widths. A restarted server recovers the journal before
	// listening, so reconnecting clients find their keys at the values and
	// precision the previous process had learned instead of a cold start.
	// New ignores it (only Open attaches the log).
	WALDir string
	// WALFsync selects when journal appends reach stable storage (default
	// wal.FsyncInterval; see the wal.Policy constants). With wal.FsyncAlways
	// every Set waits for an fsync covering its record; reads journal nothing.
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

	// queries maintains the registered continuous queries, indexed by the
	// negative cache ID each holds its member subscriptions under, so Set's
	// push loop routes a refresh here by its sign. The connections own them
	// (clientConn.queries). Guarded by cqMu.
	queries *cq.Engine

	// pushStats is the merge-buffer accounting every connection's queue
	// reports into.
	pushStats pushStats

	// connMu guards the connection registry and listener lifecycle. Only
	// the write side changes them; Set, the event loops and every other
	// lookup hold the read side. Lock order: shard → connMu → cqMu → a
	// queue's mu, never the reverse.
	connMu  sync.RWMutex
	conns   map[int]*clientConn
	ln      net.Listener
	closed  bool
	serveWG sync.WaitGroup
	// nextID numbers connections and standing queries from one sequence; a
	// query's cache ID is the negated number, so a cache ID never names both,
	// is never reused, and teaches the engine no width (see engine.Shard).
	nextID atomic.Int64
	// stopped is closed by the first shutdown call as its last step.
	stopped chan struct{}

	// cqMu guards the standing-query engine, which has no lock of its own,
	// and orders its answers: each observation and the push of what it
	// emits run under it, so a query's updates are enqueued in the order
	// the engine computed them. cqObserves and cqUpdates count the
	// refreshes handed to the engine and the answers it had pushed; up holds
	// the answer being pushed, so a push allocates nothing.
	cqMu                  sync.Mutex
	cqObserves, cqUpdates int
	up                    netproto.QueryUpdate
}

// clientConn is one connected cache.
type clientConn struct {
	id   int
	conn *net.TCPConn

	// q is the delivery state machine and its flush window, w the flush
	// state its drain-slot holder owns. rd tells Server.wake whether the
	// connection's reader is decoding and will drain before it reads again;
	// goDrain starts a drainer goroutine (Server.goDrain) when it is not.
	q       outQueue
	w       connWriter
	rd      atomic.Uint32
	goDrain func()
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
	// carry it. Read and written on the dispatch goroutine only.
	replies uint64

	// scratch groups each request's keys by shard, reused across
	// requests; only the dispatching goroutine touches it.
	scratch engine.ShardSet

	// queries maps the QID of each standing query the connection registered
	// and has not unregistered to the query's cache ID: the connection owns
	// its queries, and a QID it has live is refused. The dispatch goroutine
	// changes it only under connMu's read side while the connection is in
	// the registry; dropClient removes the connection under the write side,
	// then reaps every query the map names.
	queries map[uint64]int
}

// New creates a server. It panics on invalid Params (configuration error).
func New(cfg Config) *Server {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	if cfg.InitialWidth < 0 || math.IsNaN(cfg.InitialWidth) {
		panic("server: negative or NaN initial width")
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
		stopped:  make(chan struct{}),
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
// the update fired: those pushed to connections and those folded into
// standing queries' member keys. Only the key's shard is locked; the frames
// are enqueued under that lock so each client sees the key's intervals in
// generation order; the journal commit — the part that may fsync — waits
// until it is released.
func (s *Server) Set(key int, v float64) int {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	refreshes, tok := s.eng.Set(sh, key, v)
	if len(refreshes) == 0 {
		sh.Mu.Unlock()
		s.eng.Commit(sh, tok)
		return 0
	}
	// One clock read and one connMu read acquisition for the whole batch;
	// push is a non-blocking enqueue under the destination queue's own lock,
	// which alone serializes, and so orders, one connection's pushes.
	var now int64
	if s.cfg.FlushInterval > 0 {
		now = time.Now().UnixNano()
	}
	s.connMu.RLock()
	for _, r := range refreshes {
		if r.CacheID < 0 {
			s.observeCQLocked(r)
			continue
		}
		c, ok := s.conns[r.CacheID]
		if !ok {
			continue // a disconnected client's, reaped by dropClient
		}
		s.wake(c, c.q.push(netproto.RefreshItem{
			Key:           int64(r.Key),
			Kind:          netproto.KindValueInitiated,
			Value:         r.Value,
			Lo:            r.Interval.Lo,
			Hi:            r.Interval.Hi,
			OriginalWidth: r.OriginalWidth,
		}, now, maxBatch))
	}
	s.connMu.RUnlock()
	sh.Mu.Unlock()
	s.eng.Commit(sh, tok)
	return len(refreshes)
}

// observeCQLocked folds one refresh addressed to a standing query's cache ID
// into the query and, when the tight aggregate left the answer
// envelope the client holds, pushes the replacement envelope as a
// QueryUpdate to the owning connection — a full answer, so under congestion
// it parks latest-wins per query like a Refresh per key, and it never waits
// out a flush window. The member's width cap is the one registration set,
// so the fold is all there is to do. The caller holds the key's shard lock
// and connMu's read side; the fold and its push run under cqMu, so
// concurrent Sets on a query's member keys enqueue its QueryUpdates in
// answer order.
func (s *Server) observeCQLocked(r source.Refresh) {
	s.cqMu.Lock()
	defer s.cqMu.Unlock()
	up, emit, _ := s.queries.Observe(r.CacheID, r.Key, r.Interval, r.Value, true)
	s.cqObserves++
	if emit {
		s.cqUpdates++
		if c, ok := s.conns[up.Owner]; ok {
			s.up = netproto.QueryUpdate{QID: up.QID, Value: up.Value, Lo: up.Iv.Lo, Hi: up.Iv.Hi}
			s.wake(c, c.q.pushQuery(&s.up))
		}
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

// Clients returns the number of connected caches.
func (s *Server) Clients() int {
	s.connMu.RLock()
	defer s.connMu.RUnlock()
	return len(s.conns)
}

// ShardStats describes one shard's occupancy: how many keys it hosts and how
// many subscriptions it maintains — one per key a client holds, watches, has
// a reply in flight for or has yet to announce as not held, and one per
// member of a standing query. Skew across shards is the signal the per-shard
// eviction question in ROADMAP.md needs.
type ShardStats struct {
	Keys          int
	Subscriptions int
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
	// QueryObserves counts the member-key escapes handed to the
	// continuous-query engine (in process) and QueryUpdates the answers it
	// had pushed to clients; both only grow.
	// Their ratio is the share of key refreshes the answer envelopes let
	// through to the wire.
	QueryObserves int
	QueryUpdates  int
	// Mutes counts the keys clients announced as not held whose
	// subscriptions the server dropped; MutesRefused the announcements it
	// declined because a reply carrying the key was still on its way to the
	// client, or because the pair was missing — never subscribed, or already
	// dropped by an earlier announcement. Both only grow.
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
	}
	s.connMu.RLock()
	st.Clients = len(s.conns)
	s.connMu.RUnlock()
	s.cqMu.Lock()
	st.Queries = s.queries.Queries()
	st.QueryObserves, st.QueryUpdates = s.cqObserves, s.cqUpdates
	s.cqMu.Unlock()
	var costSum, costN int64
	for i, sh := range s.eng.Shards() {
		sh.Mu.Lock()
		st.PerShard[i] = ShardStats{
			Keys:          sh.Src.Keys(),
			Subscriptions: sh.Src.Subscriptions(),
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
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	s.serveWG.Add(1)
	go s.acceptLoop(ln.(*net.TCPListener))
	return ln.Addr(), nil
}

// acceptLoop accepts connections until the listener closes. Any other
// accept error, such as running out of descriptors, is logged and retried
// after a pause of 5 ms doubling to 1 s, which the next accepted connection
// resets: the pending connection keeps the listener readable, so retrying at
// once would spin.
func (s *Server) acceptLoop(ln *net.TCPListener) {
	defer s.serveWG.Done()
	var backoff time.Duration
	for {
		conn, err := ln.AcceptTCP()
		if err != nil {
			s.connMu.RLock()
			closed := s.closed
			s.connMu.RUnlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.logf("server: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := &clientConn{id: int(s.nextID.Add(1)), conn: conn}
		c.q.stats, c.q.window = &s.pushStats, s.cfg.FlushInterval
		c.q.expire = func() { s.wake(c, c.q.schedule()) }
		c.goDrain = s.goDrain(c)
		if s.poll != nil {
			// Attach before the registry insert so every registered conn
			// has its poller state (c.pc is immutable once visible); the
			// descriptor is armed only after the insert, so a readiness
			// event can never beat the registry.
			if err := s.poll.attach(c); err != nil {
				s.logf("client %d: poller attach: %v", c.id, err)
				conn.Close()
				continue
			}
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
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
		s.serveWG.Add(1)
		go s.readLoop(c)
	}
}

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

// readBufSize is the read loop's buffer: what the bufio.Reader it replaced
// held, so a connection's footprint is unchanged. A larger frame is carried
// across reads by the decoder.
const readBufSize = 4 << 10

// readLoop is the goroutine driver's reader: blocking reads into one buffer,
// fed to the same netproto.StreamDecoder the poller feeds. Every decoded
// message is valid only for its dispatch call, which is safe because all
// handlers consume their request synchronously and their responses are
// encoded before it returns. It drains a slot claimed while it decodes.
func (s *Server) readLoop(c *clientConn) {
	defer s.serveWG.Done()
	defer s.dropClient(c)
	dec := netproto.NewStreamDecoder()
	buf := make([]byte, readBufSize)
	dispatch := func(m netproto.Message) error { return s.dispatch(c, m) }
	for {
		n, err := c.conn.Read(buf)
		c.rd.Store(rdReading)
		ferr := dec.Feed(buf[:n], dispatch)
		if c.rd.Swap(rdIdle) == rdDrain {
			s.drain(c, writeBlocking)
		}
		if ferr != nil {
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
	case *netproto.Ping:
		s.reply(c, &netproto.Pong{ID: m.ID})
	case *netproto.ReadMulti:
		// The tail goes first: a key both muted and read ends up subscribed.
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

// handleMute applies a client's announcement that it does not hold keys: each
// one's subscription is dropped — a later read starts it over at the
// engine's width for the key — unless a reply numbered above seen carried the
// key, in which case the client may hold it after all by the time that reply
// lands and the mute is refused (internal/source states the protocol and why
// it is safe). Keys are grouped by shard so each shard lock is taken once;
// there is no response.
func (s *Server) handleMute(c *clientConn, seen uint64, keys []int64) {
	if len(keys) == 0 {
		return
	}
	s.eng.Group(&c.scratch, keys)
	for _, i := range c.scratch.Sorted {
		sh := s.eng.Shards()[i]
		sh.Mu.Lock()
		for _, pos := range c.scratch.ByShard[i] {
			if sh.Mute(c.id, int(keys[pos]), seen) {
				sh.Host.mutes++
			} else {
				sh.Host.refused++
			}
		}
		sh.Mu.Unlock()
	}
}

// replyPool lends handleMulti its reply for the one call that fills and
// encodes it, so no connection keeps a reply's items between requests.
var replyPool = sync.Pool{New: func() any { return new(netproto.RefreshBatch) }}

// handleMulti serves ReadMulti (read=true) and SubscribeMulti (read=false):
// it locks every involved shard in ascending order, validates the whole key
// set, fills each shard's slice of the reply in turn, and enqueues a single
// RefreshBatch — still under the locks, so no concurrent Set can interleave
// a newer push before this response for any of the keys.
func (s *Server) handleMulti(c *clientConn, id uint64, keys []int64, read bool) {
	set := &c.scratch
	s.eng.Group(set, keys)
	s.eng.LockSet(set.Sorted)
	defer s.eng.UnlockSet(set.Sorted)
	if k, ok := s.eng.UnknownKey(keys); ok {
		s.reply(c, errUnknownKey(id, k))
		return
	}
	rb := replyPool.Get().(*netproto.RefreshBatch)
	defer replyPool.Put(rb)
	rb.ID = id
	if cap(rb.Items) < len(keys) {
		rb.Items = make([]netproto.RefreshItem, len(keys))
	} else {
		rb.Items = rb.Items[:len(keys)]
	}
	mark := c.replies + 1 // the RefreshBatch below
	for _, i := range set.Sorted {
		sh := s.eng.Shards()[i]
		var start time.Time
		if read {
			start = time.Now()
		}
		for _, pos := range set.ByShard[i] {
			k := keys[pos]
			var r source.Refresh
			kind := netproto.KindInitial
			if read {
				r, _ = s.eng.Read(sh, c.id, int(k), mark) // UnknownKey refused the request
				kind = netproto.KindQueryInitiated
			} else {
				r, _ = sh.Src.SubscribeMarked(c.id, int(k), mark)
			}
			rb.Items[pos] = netproto.RefreshItem{
				Key:           k,
				Kind:          kind,
				Value:         r.Value,
				Lo:            r.Interval.Lo,
				Hi:            r.Interval.Hi,
				OriginalWidth: r.OriginalWidth,
			}
		}
		if read {
			// Amortize the batch's timer reads: one measurement for the
			// shard's whole slice, folded in at per-key granularity.
			observeCost(sh, time.Since(start)/time.Duration(len(set.ByShard[i])))
		}
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
// seeded answer and the ack. From the first subscription through the ack it
// holds connMu's read side: a connection already out of the registry gets
// nothing subscribed, and dropClient's sweep of c.queries, which waits for
// the write side, sees every query registered while the connection was in.
func (s *Server) handleRegisterQuery(c *clientConn, m *netproto.RegisterQuery) {
	seen := make(map[int64]struct{}, len(m.Keys))
	for _, k := range m.Keys {
		if _, dup := seen[k]; dup {
			s.reply(c, errUnsupported(m.ID, k, fmt.Sprintf("duplicate key %d in query", k)))
			return
		}
		seen[k] = struct{}{}
	}
	s.eng.Group(&c.scratch, m.Keys)
	shardSet := c.scratch.Sorted
	s.eng.LockSet(shardSet)
	defer s.eng.UnlockSet(shardSet)
	if k, ok := s.eng.UnknownKey(m.Keys); ok {
		s.reply(c, errUnknownKey(m.ID, k))
		return
	}
	s.connMu.RLock()
	defer s.connMu.RUnlock()
	if s.conns[c.id] != c {
		return
	}
	if _, live := c.queries[m.QID]; live {
		s.reply(c, errUnsupported(m.ID, 0, fmt.Sprintf("query %d is already registered on this connection", m.QID)))
		return
	}
	qcid := -int(s.nextID.Add(1))
	spec := cq.Spec{Owner: c.id, QID: m.QID, Kind: m.Kind, Delta: m.Delta, Keys: make([]int, len(m.Keys))}
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
		r, _ := sh.Src.ReadMarked(qcid, k, 0) // query-initiated: exact seed, already under the cap; UnknownKey refused the request
		ivs[i], vals[i] = r.Interval, r.Value
	}
	s.cqMu.Lock()
	up := s.queries.Register(spec, qcid, ivs, vals)
	s.cqMu.Unlock()
	if c.queries == nil {
		c.queries = make(map[uint64]int)
	}
	c.queries[m.QID] = qcid
	s.reply(c, &netproto.QueryUpdate{ID: m.ID, QID: m.QID, Value: up.Value, Lo: up.Iv.Lo, Hi: up.Iv.Hi})
}

// handleUnregisterQuery tears down a standing query. Like Mute it is
// fire-and-forget; a QID the connection has no live query under is ignored.
func (s *Server) handleUnregisterQuery(c *clientConn, m *netproto.UnregisterQuery) {
	s.connMu.RLock()
	qcid, live := c.queries[m.QID]
	if live = live && s.conns[c.id] == c; live { // else dropClient reaps it
		delete(c.queries, m.QID)
	}
	s.connMu.RUnlock()
	if live {
		s.reapQuery(qcid)
	}
}

// reapQuery unregisters the standing query held under qcid and removes its
// member subscriptions, which live under qcid and are therefore missed by
// the per-connection UnsubscribeCache sweep.
func (s *Server) reapQuery(qcid int) {
	s.cqMu.Lock()
	keys := s.queries.Remove(qcid)
	s.cqMu.Unlock()
	for _, k := range keys {
		sh := s.eng.For(k)
		sh.Mu.Lock()
		sh.Src.Unsubscribe(qcid, k)
		sh.Mu.Unlock()
	}
}

// dropClient removes a disconnected client and its subscriptions. It is the
// single teardown path, always reached on a goroutine shutdown joins: the
// driver's reader on end-of-stream (which is also how sever lands here), the
// accept loop, or shutdown itself. Idempotent; concurrent callers race
// benignly on the registry check. Only shutdown can drop a connection while
// one of its requests runs, and nothing cancels that request: it reads at
// most netproto.MaxBatchItems keys under shard locks the sweep below waits
// for anyway.
func (s *Server) dropClient(c *clientConn) {
	s.connMu.Lock()
	if _, ok := s.conns[c.id]; !ok {
		s.connMu.Unlock()
		return
	}
	delete(s.conns, c.id)
	s.connMu.Unlock()
	if c.pc != nil {
		// Leave the epoll set while the descriptor number is still ours.
		c.pc.lp.Remove(c.pc.fd)
	}
	c.conn.Close()
	// No new traffic can arrive — the connection is out of the registry —
	// so stop the window's timer and release whatever is still queued or
	// parked.
	c.q.close()
	// Reap the connection's standing queries: no registration can add one
	// now that the connection is out of the registry.
	for _, qcid := range c.queries {
		s.reapQuery(qcid)
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
// Later calls of either wait for the first to finish and return nil.
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
// semantics). Only the first caller tears down; a follower waits until it
// has finished, so every returned call means a fully stopped server.
func (s *Server) shutdown(ctx context.Context) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		<-s.stopped
		return nil
	}
	defer close(s.stopped)
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
	if ctx != nil {
		err = s.drainConns(ctx, conns)
	}
	// The drain is not complete until the journal covers everything the
	// connections were just promised: flush it before they drop, so the
	// recovered server serves exactly the final delivered values.
	if werr := s.eng.Sync(); werr != nil && err == nil {
		err = werr
	}
	for _, c := range conns {
		s.dropClient(c)
	}
	if s.poll != nil {
		// Every connection is out of the registry (the accept loop refuses
		// new ones once closed is set), so no goroutine can schedule new
		// work on the core; shut its loops down and join them.
		s.poll.shutdown()
	}
	s.serveWG.Wait()
	if werr := s.eng.Close(); werr != nil && err == nil {
		err = werr
	}
	return err
}

// drainConns blocks until every connection's pipeline has emptied into the
// kernel — queue, merge buffer, batch in flight — or ctx is done. Open flush
// windows are ended first so held pushes flush without waiting for their
// expiry; a connection that dies mid-drain stops counting as pending.
func (s *Server) drainConns(ctx context.Context, conns []*clientConn) error {
	for _, c := range conns {
		s.wake(c, c.q.schedule())
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
