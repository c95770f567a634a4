// Package client is the networked deployment's client: a session to one
// server in front of a cache side (internal/cacheside) — the store of
// interval approximations fed by pushes (value-initiated refreshes) and by
// exact reads (query-initiated refreshes), the watches, the standing queries
// and the mute queue. A query looks its keys up in the store under one lock
// and plans over them with query.Plan, as apcache.Store does, fetching each
// round with one ReadMulti. This package keeps the transport: dial
// and handshake, the correlation table, the reader, redial and replay, and
// the public methods.
//
// The core is pipelined: requests are matched to responses by request ID, so
// any number of calls share the one connection. Each request is encoded into
// a pooled buffer and written as one frame by the goroutine that makes it;
// net.Conn serialises whole writes, so concurrent callers' frames never
// interleave. A query fetches every key it needs refined in a round with one
// ReadMulti. In steady state the wire path allocates nothing: read requests,
// timers and result channels are pooled, and the read loop decodes through a
// reusing netproto.StreamDecoder and completes each call in place, writing a
// read's values into its caller's slice. The read loop itself never writes.
//
// Every stream opens with a Hello/HelloAck handshake at the one protocol
// version (netproto.Version), and the Hello is the stream's first frame. A
// peer that refuses the Hello, or acks any other version, fails Dial — and a
// redial attempt — with an error matching aperrs.ErrHandshakeRefused.
//
// # Evictions and mutes
//
// The cache side decides which keys the server may stop pushing (its rules
// R1–R3). The client sends them on the tail of the next ReadMulti, sampled in
// the critical section that binds the request to its session, so one
// session's reply count never rides another's stream. A push (ID 0) is the
// install that may not admit. Unsubscribe sends the queue at once in a
// standalone Mute frame; so does a client that stopped reading, once its
// queue passes muteFlushAt, from a goroutine of its own (one at a time).
//
// # API v1
//
// Every blocking method has a context variant (ReadExactCtx, QueryCtx, ...).
// An already-done context fails before a frame is written; cancellation
// mid-call frees the correlation slot at once, and a late response is applied
// as unsolicited traffic. A context does not interrupt a write the server is
// not reading: it lasts until the stream dies. Calls whose context has no deadline get
// Config.Timeout. Watch streams the refreshes the read loop applies, with
// per-key latest-wins coalescing, and the server's structured error frame
// makes errors.Is(err, aperrs.ErrUnknownKey) hold across the TCP boundary.
//
// # Fault-tolerant sessions
//
// With Config.Reconnect enabled, a session outlives its TCP stream. In-flight
// calls fail with an error matching aperrs.ErrConnLost, and so do calls made
// while the stream is down, the redial's handshake included. A redial loop
// (exponential backoff with full jitter, optionally bounded by MaxAttempts)
// dials again, re-runs the handshake and replays the coherence set: every key
// the store holds or an open Watch observes, in SubscribeMulti chunks, then
// every standing query. A key in neither set is not replayed. Open watches
// see an EventDisconnected/EventReconnected pair and keep streaming. Get
// serves the last-known interval through the outage, and Stats.Degraded
// reports it.
package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/cache"
	"apcache/internal/cacheside"
	"apcache/internal/interval"
	"apcache/internal/netproto"
	"apcache/internal/query"
	"apcache/internal/watch"
)

// ErrClosed is returned by operations on a closed client. It is the shared
// apcache sentinel, so errors.Is(err, apcache.ErrClosed) holds.
var ErrClosed = aperrs.ErrClosed

// ServerError is a request failure reported by the server, as opposed to a
// transport failure. It carries the structured code and key from the wire
// Error2 frame, so errors.Is/As resolves it against the apcache error
// taxonomy (ErrUnknownKey and friends) across the TCP boundary. The
// handshake uses the type to tell a refused Hello from a dead transport.
type ServerError struct {
	Code netproto.ErrCode
	Key  int64
	Msg  string
}

func (e *ServerError) Error() string { return "client: server error: " + e.Msg }

// Is maps the wire's unknown-key code onto aperrs.ErrUnknownKey.
func (e *ServerError) Is(target error) bool {
	return e.Code == netproto.CodeUnknownKey && target == aperrs.ErrUnknownKey
}

// As extracts the structured unknown-key detail into an *aperrs.KeyError.
func (e *ServerError) As(target any) bool {
	if e.Code != netproto.CodeUnknownKey {
		return false
	}
	if ke, ok := target.(**aperrs.KeyError); ok {
		*ke = &aperrs.KeyError{Key: int(e.Key)}
		return true
	}
	return false
}

// Stats counts the refreshes and frames a client has processed.
type Stats struct {
	// ValueRefreshes counts server pushes (value-initiated).
	ValueRefreshes int
	// QueryRefreshes counts exact reads (query-initiated).
	QueryRefreshes int
	// FramesSent and FramesReceived count wire frames in each direction; a
	// RefreshBatch is one frame however many refreshes it carries.
	FramesSent, FramesReceived int
	// SmoothedRTT is the EWMA of observed request round-trip times. Zero
	// until the first call completes.
	SmoothedRTT time.Duration
	// Reconnects counts completed automatic reconnections: sessions that
	// redialed, re-ran the handshake, and replayed the coherence set after
	// a transport failure (see Config.Reconnect).
	Reconnects int
	// Queries is the number of standing continuous queries currently
	// registered (see WatchQuery).
	Queries int
	// Degraded reports that the connection is down and local reads serve
	// last-known state; it clears once the coherence set is replayed.
	Degraded bool
	// MutesSent counts keys announced to the server as not held, on
	// ReadMulti tails and standalone Mute frames.
	MutesSent int
	// PushesIgnored counts pushes for keys the store did not hold, which
	// never admit (rule R1). Steady growth means refused mutes, or a queue
	// that is not draining.
	PushesIgnored int
	// Cache snapshots the local store's counters.
	Cache cache.Stats
}

// Config parameterizes DialConfig.
type Config struct {
	// CacheSize caps the local store of interval approximations. Required
	// (must be positive).
	CacheSize int
	// Timeout is the default per-request deadline (default 10s), applied
	// to calls whose context carries no deadline of its own. A context
	// deadline or cancellation always wins, and such calls fail with the
	// context's error; a default-deadline expiry fails with an error
	// matching both ErrTimeout and context.DeadlineExceeded.
	Timeout time.Duration
	// Reconnect configures automatic redial after a transport failure. The
	// zero value disables it: a transport failure closes the client.
	Reconnect ReconnectPolicy
}

// DefaultReconnectBase and DefaultReconnectCap are the backoff bounds an
// Enabled but otherwise zero ReconnectPolicy uses.
const (
	DefaultReconnectBase = 50 * time.Millisecond
	DefaultReconnectCap  = 5 * time.Second
)

// ReconnectPolicy drives the client's automatic redial loop (see the package
// doc's fault-tolerant sessions): each attempt dials the original address,
// re-runs the handshake and replays the coherence set before the session
// counts as recovered. Callers retry on errors.Is(err, ErrConnLost).
type ReconnectPolicy struct {
	// Enabled turns automatic reconnection on. Off by default: a client
	// that has not opted in observes the historical semantics, where a
	// transport failure closes the client and fails its watches.
	Enabled bool
	// BaseDelay seeds the exponential backoff: attempt n (0-based) waits a
	// uniformly random duration in [0, min(MaxDelay, BaseDelay·2ⁿ)] — full
	// jitter, so a fleet of clients losing one server does not reconnect
	// in lockstep. 0 selects DefaultReconnectBase.
	BaseDelay time.Duration
	// MaxDelay caps the backoff bound. 0 selects DefaultReconnectCap.
	MaxDelay time.Duration
	// MaxAttempts bounds consecutive failed attempts before the client
	// gives up: it closes, and the surviving watches fail with the typed
	// loss. 0 retries until the client is closed.
	MaxAttempts int
}

// delay computes the backoff before attempt (0-based) from a jitter draw r
// in [0, 1): full jitter over an exponentially growing bound, clamped to
// [BaseDelay, MaxDelay].
func (p ReconnectPolicy) delay(attempt int, r float64) time.Duration {
	base, ceil := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultReconnectBase
	}
	if ceil <= 0 {
		ceil = DefaultReconnectCap
	}
	ceil = max(ceil, base)
	bound := base
	for i := 0; i < attempt && bound < ceil; i++ {
		bound *= 2
	}
	bound = min(bound, ceil)
	return min(max(time.Duration(r*float64(bound)), 0), bound)
}

// maxBatch caps the keys per ReadMulti/SubscribeMulti chunk, on a mute tail
// and in a Mute frame.
const maxBatch = 128

// muteFlushAt is the mute-queue length past which a client sends a
// standalone Mute frame instead of waiting for a ReadMulti to carry the
// keys. A client with read traffic drains the queue on every fetch and never
// gets there.
const muteFlushAt = 64

// callResult resolves one in-flight request with what its caller checks of
// the response: the frame type, a RefreshBatch's item count, a HelloAck's
// version — or the error that failed the call. at is the read loop's receive
// timestamp, so the RTT sample is send-to-receive however late the caller
// awaits it (pipelined chunks are awaited in turn).
type callResult struct {
	typ     netproto.MsgType
	n       int
	version uint8
	err     error
	at      time.Time
}

// waiter is an in-flight call's correlation entry: where its result goes, and
// where a read's reply values go, written by the read loop under mu.
type waiter struct {
	ch   chan callResult
	vals []float64
}

// sess is one TCP stream of the client's logical session. The redial loop
// replaces the whole struct under mu, so a call bound to a dead stream never
// writes to its replacement: its write fails, or its frame is lost with the
// stream, and the stream's read loop fails the call.
type sess struct {
	conn net.Conn
	dead chan struct{} // closed when the stream's read loop exits
	lost bool          // set under mu by connLost, before dead closes
}

func newSess(conn net.Conn) *sess {
	return &sess{conn: conn, dead: make(chan struct{})}
}

// Client is a networked approximate cache. All methods are safe for
// concurrent use.
type Client struct {
	// addr is the dial target, kept for the redial loop. The knobs below
	// it are immutable after DialConfig; timeout is the default per-call
	// deadline (Config.Timeout), applied when a call's context has none.
	addr    string
	policy  ReconnectPolicy
	timeout time.Duration

	// mu guards the cache side, the correlation table, and the
	// session/reconnect state. It is never held across a network operation.
	// The cache side's held and watched keys and its standing queries are
	// the coherence set a reconnect replays.
	mu      sync.Mutex
	sess    *sess
	side    *cacheside.Side
	pending map[uint64]waiter
	nextID  uint64
	closed  bool
	byUser  bool // closed by an explicit Close, not a transport failure
	readErr error

	// down marks the gap between a stream dying and its replacement's
	// HelloAck: calls started inside it fail fast with the typed loss, so
	// the Hello is the first frame of every stream. reconnecting is true
	// while a redial goroutine runs, muting while a Mute sender does;
	// downSince marks the outage (Stats.Degraded) and clears only once the
	// coherence set has been replayed.
	down         bool
	reconnecting bool
	muting       bool
	downSince    time.Time
	reconnects   int

	// closeCh aborts the redial loop's backoff sleeps; wg lets Close join
	// the redial loop and the Mute sender. Each Add runs with closed clear
	// under mu, or on a stream whose read loop Close waits for, so it comes
	// before Close's Wait.
	closeCh   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// rttEWMA smooths observed call round-trip times (alpha = 1/8).
	// Nanoseconds; 0 = no sample yet.
	rttEWMA atomic.Int64

	framesSent atomic.Int64
	framesRecv atomic.Int64
}

// Dial connects to a server and returns a cache of the given capacity.
func Dial(addr string, cacheSize int) (*Client, error) {
	return DialConfig(addr, Config{CacheSize: cacheSize})
}

// DialConfig connects to a server with explicit protocol knobs.
func DialConfig(addr string, cfg Config) (*Client, error) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := &Client{
		addr:    addr,
		policy:  cfg.Reconnect,
		timeout: timeout,
		side:    cacheside.New(cfg.CacheSize),
		pending: make(map[uint64]waiter),
		closeCh: make(chan struct{}),
	}
	s := newSess(conn)
	c.sess = s
	go c.readLoop(s)
	if err := c.handshake(s); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake opens stream s: it offers netproto.Version and requires the
// peer to ack exactly that version. A peer that answers Hello with an error
// frame, or acks any other version, speaks a different protocol; the stream
// is unusable and the failure matches aperrs.ErrHandshakeRefused. It runs at
// Dial time and again on every reconnect, bound to s while the client is
// still down, so no other call can reach the stream before the Hello.
func (c *Client) handshake(s *sess) error {
	res := c.call(context.Background(), s, &netproto.Hello{Version: netproto.Version}, nil)
	if err := res.err; err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			return fmt.Errorf("client: %w: %s", aperrs.ErrHandshakeRefused, se.Msg)
		}
		return fmt.Errorf("client: handshake: %w", err)
	}
	if res.typ != netproto.THelloAck {
		return fmt.Errorf("client: %w: %s in reply to Hello", aperrs.ErrHandshakeRefused, res.typ)
	}
	if res.version != netproto.Version {
		return fmt.Errorf("client: %w: peer acked protocol version %d, this client speaks only %d", aperrs.ErrHandshakeRefused, res.version, netproto.Version)
	}
	return nil
}

// observeRTT folds one completed call's round-trip time into the smoothed
// per-connection RTT (EWMA, alpha = 1/8).
func (c *Client) observeRTT(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := c.rttEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if c.rttEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// readBufSize is the read loop's buffer: what the bufio.Reader it replaced
// held, so a connection's footprint is unchanged. A larger frame is carried
// across reads by the decoder.
const readBufSize = 4 << 10

// readLoop feeds one stream's inbound frames to handleMsg through a reusing
// netproto.StreamDecoder. On a read or decode error the stream is gone:
// connLost fails the in-flight calls and decides between teardown and
// reconnection.
func (c *Client) readLoop(s *sess) {
	defer close(s.dead)
	dec := netproto.NewStreamDecoder()
	buf := make([]byte, readBufSize)
	handle := func(msg netproto.Message) error {
		c.framesRecv.Add(1)
		c.handleMsg(msg)
		return nil
	}
	for {
		n, err := s.conn.Read(buf)
		if ferr := dec.Feed(buf[:n], handle); ferr != nil {
			err = ferr
		}
		if err != nil {
			c.connLost(s, err)
			return
		}
	}
}

// connLost is the single teardown path for a dead stream, run by its read
// loop. Every in-flight call fails with the loss typed here, under mu, so a
// redial that clears readErr before the waiter wakes cannot untype it. Then,
// either the client closes — reconnect disabled, or the user closed it — and
// the watches fail; or recovery is handed to the redial loop and the watches
// stay attached, observing EventDisconnected instead.
func (c *Client) connLost(s *sess, err error) {
	c.mu.Lock()
	if c.sess != s {
		// A stream the redial loop already replaced; its state is gone.
		c.mu.Unlock()
		return
	}
	c.readErr = err
	c.down = true
	s.lost = true
	if !c.byUser && c.downSince.IsZero() {
		c.downSince = time.Now()
	}
	retry := c.policy.Enabled && !c.byUser && !c.closed
	if !retry {
		c.closed = true
	}
	loss := c.closeReasonLocked()
	for _, w := range c.pending {
		w.ch <- callResult{err: loss} // buffered, and taken from pending: the one send
	}
	c.pending = map[uint64]waiter{}
	// The terminal path detaches every watch so late notifications are
	// no-ops; the retry path leaves them attached — the same watches resume
	// when the replayed subscriptions start refreshing again.
	var ws []*watch.Watch
	spawn := false
	if !retry {
		ws = c.side.Detach()
	} else if !c.reconnecting {
		// First loss of an established session: announce the outage and
		// start the redial loop. A half-established reconnect attempt dying
		// lands here too and changes nothing — the running loop already owns
		// recovery.
		c.reconnecting = true
		spawn = true
		ws = c.side.Watches()
	}
	byUser := c.byUser
	c.mu.Unlock()
	s.conn.Close() // fail the stream's writers when the loss was a decode error, not a dead socket
	if spawn {
		for _, w := range ws {
			w.NotifyEvent(watch.EventDisconnected)
		}
		c.wg.Add(1)
		go c.redial()
		return
	}
	// Fail the watches outside mu (Fail runs the unregister hook, which
	// relocks). An explicitly closed client surfaces as ErrClosed;
	// anything else as the typed connection loss.
	if byUser || errors.Is(err, net.ErrClosed) {
		fail(ws, ErrClosed)
	} else {
		fail(ws, aperrs.ConnLost(err))
	}
}

// fail ends each detached watch with err.
func fail(ws []*watch.Watch, err error) {
	for _, w := range ws {
		w.Fail(err)
	}
}

// redial re-establishes the session: exponential backoff with full jitter
// between attempts, each attempt a fresh dial, handshake, and replay of the
// coherence set. It exits when a reconnect succeeds, the
// client closes, or MaxAttempts consecutive failures exhaust the policy.
func (c *Client) redial() {
	defer c.wg.Done()
	for attempt := 0; ; attempt++ {
		if c.policy.MaxAttempts > 0 && attempt >= c.policy.MaxAttempts {
			c.giveUp()
			return
		}
		if d := c.policy.delay(attempt, rand.Float64()); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-c.closeCh:
				t.Stop()
				return
			}
		}
		select {
		case <-c.closeCh:
			return
		default:
		}
		if c.tryReconnect() {
			return
		}
	}
}

// tryReconnect runs one reconnection attempt end to end. It reports true
// when the redial loop should stop: the session is back, or the client
// closed underneath the attempt. The client stays down until the new
// stream's HelloAck lands, so a call racing the redial fails fast instead of
// reaching the server ahead of the Hello; the replay then shares the stream
// with user calls.
func (c *Client) tryReconnect() bool {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return false
	}
	s := newSess(conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return true
	}
	c.sess = s
	keys := c.side.Reset() // the new stream numbers its replies from its HelloAck
	c.mu.Unlock()
	go c.readLoop(s)
	var qs []*cacheside.Query
	if err = c.handshake(s); err == nil {
		// The queries to replay are taken as user calls reach s: a query
		// registered from here on sends its own RegisterQuery on s, and the
		// server refuses a QID the connection already has live.
		c.mu.Lock()
		c.down = s.lost
		qs = c.side.Queries()
		c.mu.Unlock()
		// Replay the coherence set: the keys Reset returned, then the
		// standing queries under their original QIDs, so open WatchQuery
		// streams resume without caller involvement. Each call gets the
		// default deadline.
		err = c.SubscribeMultiCtx(context.Background(), keys)
	}
	for i := 0; err == nil && i < len(qs); i++ {
		err = c.call(context.Background(), nil, registerMsg(qs[i]), nil).err
		// A watch closed since qs was taken may have sent its unregister
		// ahead of this registration, which the server then ignored.
		c.mu.Lock()
		orphan := err == nil && !c.side.HasQuery(qs[i])
		c.mu.Unlock()
		if orphan {
			err = c.send(s, &netproto.UnregisterQuery{QID: qs[i].QID})
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return true
	}
	if err != nil || s.lost { // a stream lost after its last call is no session either
		c.mu.Unlock()
		c.failSession(s)
		return false
	}
	c.reconnecting = false
	c.downSince = time.Time{}
	c.readErr = nil
	c.reconnects++
	live := c.side.Watches()
	c.mu.Unlock()
	for _, w := range live {
		w.NotifyEvent(watch.EventReconnected)
	}
	return true
}

// failSession abandons a half-established reconnect attempt: kill the
// stream and wait for its read loop, so consecutive attempts never overlap.
// The stream's connLost sees reconnecting already set and leaves recovery to
// the caller.
func (c *Client) failSession(s *sess) {
	s.conn.Close()
	<-s.dead
}

// giveUp makes an exhausted redial policy terminal: the client closes and
// the surviving watches fail with the typed loss.
func (c *Client) giveUp() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.reconnecting = false
	err := c.readErr
	ws := c.side.Detach()
	c.mu.Unlock()
	fail(ws, aperrs.ConnLost(err))
}

// handleMsg routes one inbound frame. msg is the read loop decoder's, valid
// only for this call, so the call it answers is completed here: a read's
// values are written into its waiter's slice if the item count matches, and
// what else the caller checks goes in its callResult. Every frame with a
// nonzero ID, and every Pong, HelloAck and Error2, is one reply: its installs,
// the reply count (R3) and the taking of its waiter share one critical
// section, so the next request's mutes are judged against a count that
// includes it.
func (c *Client) handleMsg(msg netproto.Message) {
	var id uint64
	var items []netproto.RefreshItem
	var res callResult
	reply := true
	c.mu.Lock()
	switch m := msg.(type) {
	case *netproto.RefreshBatch:
		for _, it := range m.Items {
			c.side.Install(int(it.Key), interval.Interval{Lo: it.Lo, Hi: it.Hi}, it.OriginalWidth, m.ID == 0)
		}
		id, reply, items = m.ID, m.ID != 0, m.Items
		res.typ, res.n = netproto.TRefreshBatch, len(m.Items)
	case *netproto.QueryUpdate:
		c.side.Answer(m.QID, interval.Interval{Lo: m.Lo, Hi: m.Hi}, m.Value)
		id, reply, res.typ = m.ID, m.ID != 0, netproto.TQueryUpdate
	case *netproto.Pong:
		id, res.typ = m.ID, netproto.TPong
	case *netproto.HelloAck:
		id, res.typ, res.version = m.ID, netproto.THelloAck, m.Version
	case *netproto.Error2:
		id, res.typ = m.ID, netproto.TError2
	default:
		c.mu.Unlock()
		return
	}
	var w waiter
	if reply {
		c.side.Reply()
		if w = c.pending[id]; w.ch != nil {
			delete(c.pending, id)
			if len(items) == len(w.vals) {
				for i, it := range items {
					w.vals[i] = it.Value
				}
			}
		}
	}
	c.flushMutesLocked()
	c.mu.Unlock()
	if w.ch == nil {
		// A push, or a late reply whose call was abandoned: its intervals are
		// installed all the same.
		return
	}
	if m, ok := msg.(*netproto.Error2); ok {
		res.err = &ServerError{Code: m.Code, Key: m.Key, Msg: m.Msg}
	}
	res.at = time.Now()
	w.ch <- res
}

// muteFrameLocked takes the next frame's worth of the mute queue as a Mute
// frame, nil when no key is left to announce. Caller holds mu.
func (c *Client) muteFrameLocked() *netproto.Mute {
	m := &netproto.Mute{}
	if m.Seen, m.Keys = c.side.TakeMutes(nil, maxBatch); len(m.Keys) == 0 {
		return nil
	}
	return m
}

// flushMutesLocked sends the queue in a Mute frame of its own once it passes
// muteFlushAt with no ReadMulti to carry it. The read loop calls it after a
// frame's reply count has advanced. The read loop never writes — the server's
// reader may itself be blocked writing to this client — so the frame leaves
// from a goroutine of its own, one at a time: while one is out, the queue
// waits for the next reply after it.
func (c *Client) flushMutesLocked() {
	if c.muting || c.side.Queued() <= muteFlushAt || c.down || c.closed {
		return
	}
	m := c.muteFrameLocked()
	if m == nil {
		return
	}
	c.muting = true
	s := c.sess
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.send(s, m) // a failed write is the stream's loss, which its read loop handles
		c.mu.Lock()
		c.muting = false
		c.mu.Unlock()
	}()
}

// send writes m to stream s as one frame from the calling goroutine and
// releases m. It never runs under mu. net.Conn serialises whole writes, so
// frames of concurrent callers never interleave. A failed write closes the
// stream, whose read loop then fails its pending calls with the typed loss.
func (c *Client) send(s *sess, m netproto.Message) error {
	c.framesSent.Add(1)
	err := netproto.Write(s.conn, m)
	netproto.Release(m)
	if err != nil {
		s.conn.Close()
	}
	return err
}

// stampID assigns the request ID on an outbound request message.
func stampID(m netproto.Message, id uint64) {
	switch v := m.(type) {
	case *netproto.ReadMulti:
		v.ID = id
	case *netproto.SubscribeMulti:
		v.ID = id
	case *netproto.Ping:
		v.ID = id
	case *netproto.Hello:
		v.ID = id
	case *netproto.RegisterQuery:
		v.ID = id
	default:
		panic(fmt.Sprintf("client: request %T cannot carry an ID", m))
	}
}

// resultChanPool recycles the one-shot response channels. A channel is
// returned to the pool only on the success path — after its single send was
// received — so a pooled channel can never see a stray late send.
var resultChanPool = sync.Pool{New: func() any { return make(chan callResult, 1) }}

// timerPool recycles await's timeout timers. Pooled timers are stopped;
// Reset is safe without draining under Go 1.23+ timer semantics.
var timerPool sync.Pool

// startCall registers a waiter, stamps m with a fresh request ID, and sends
// it: the pipelined half of a call. It goes to the live stream, or to stream
// bound — the handshake's, which no other call may use before its HelloAck.
// A context already done fails the call before anything touches the wire;
// once the waiter is registered, ctx bounds only await, not the write. A
// failed write fails the call through its waiter, like any other loss of the
// stream. A RefreshBatch reply with one item per element of vals has its
// values written there before the call completes. startCall releases m; the
// caller must not touch it afterwards.
func (c *Client) startCall(ctx context.Context, bound *sess, m netproto.Message, vals []float64) (uint64, chan callResult, time.Time, error) {
	if err := ctx.Err(); err != nil {
		netproto.Release(m)
		return 0, nil, time.Time{}, err
	}
	c.mu.Lock()
	s, err := bound, error(nil)
	switch {
	case c.closed:
		err = ErrClosed
	case bound == nil && !c.down:
		s = c.sess
	case bound == nil || bound.lost:
		// The stream is down and the redial loop owns recovery; fail fast
		// with the typed loss instead of parking the call on a dead queue.
		err = c.closeReasonLocked()
	}
	if err != nil {
		c.mu.Unlock()
		netproto.Release(m)
		return 0, nil, time.Time{}, err
	}
	c.nextID++
	id := c.nextID
	ch := resultChanPool.Get().(chan callResult)
	c.pending[id] = waiter{ch: ch, vals: vals}
	// The mutes are sampled in the critical section that binds the request
	// to s, so their reply count is s's (R2).
	if rm, ok := m.(*netproto.ReadMulti); ok && c.side.Queued() > 0 {
		rm.Seen, rm.Mute = c.side.TakeMutes(rm.Mute, maxBatch)
	}
	c.mu.Unlock()
	stampID(m, id)
	start := time.Now()
	c.send(s, m) // a failed write fails the call through its waiter
	return id, ch, start, nil
}

// await blocks for a started call's response, bounded by the call's context
// and — when the context carries no deadline — the client's default
// timeout. Cancellation and expiry both abandon the waiter: the correlation
// slot is freed immediately, and a response arriving later is treated as
// unsolicited push traffic (its interval is still installed). The result
// channel is returned to the pool only once its single send is received; an
// abandoned channel may still receive the late response's buffered send and
// is left to the garbage collector. A call that fails carries its error in
// the result.
func (c *Client) await(ctx context.Context, id uint64, ch chan callResult, start time.Time) callResult {
	var t *time.Timer
	var expire <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		t, _ = timerPool.Get().(*time.Timer)
		if t == nil {
			t = time.NewTimer(c.timeout)
		} else {
			t.Reset(c.timeout)
		}
		expire = t.C
	}
	select {
	case res := <-ch:
		// Go 1.23+ timer semantics: receives after Stop block and Reset
		// discards stale fires, so no drain — it would deadlock when the
		// response races the expiry.
		if t != nil {
			t.Stop()
			timerPool.Put(t)
		}
		resultChanPool.Put(ch)
		if !res.at.IsZero() {
			c.observeRTT(res.at.Sub(start))
		}
		return res
	case <-expire:
		timerPool.Put(t)
		c.abandon(id)
		return callResult{err: &aperrs.TimeoutError{After: c.timeout}}
	case <-ctx.Done():
		if t != nil {
			t.Stop()
			timerPool.Put(t)
		}
		c.abandon(id)
		return callResult{err: ctx.Err()}
	}
}

// abandon forgets a request that will no longer be awaited. A response
// arriving later is handled as unsolicited: its interval is still installed.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call sends a request — on stream bound if given, see startCall, which also
// says what vals is for — and waits for the matching response. call releases
// m.
func (c *Client) call(ctx context.Context, bound *sess, m netproto.Message, vals []float64) callResult {
	id, ch, start, err := c.startCall(ctx, bound, m, vals)
	if err != nil {
		return callResult{err: err}
	}
	return c.await(ctx, id, ch, start)
}

func (c *Client) closeReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeReasonLocked()
}

// closeReasonLocked types the failure a dead stream imposes on a call: the
// connection loss (matching aperrs.ErrConnLost, with the transport cause
// wrapped for errors.As) unless the user closed the client. Caller holds mu.
func (c *Client) closeReasonLocked() error {
	if !c.byUser && c.readErr != nil {
		return aperrs.ConnLost(c.readErr)
	}
	return ErrClosed
}

// Subscribe fetches key's initial approximation into the local store, where
// pushes keep it fresh while the store holds it. Nothing else records the
// call: a reconnect replays the key only if the store still holds it or a
// Watch observes it.
func (c *Client) Subscribe(key int) error {
	return c.SubscribeCtx(context.Background(), key)
}

// SubscribeCtx is Subscribe bounded by ctx: cancellation or expiry abandons
// the call (the subscription may still take effect server-side; its initial
// refresh is then applied as unsolicited traffic).
func (c *Client) SubscribeCtx(ctx context.Context, key int) error {
	return c.SubscribeMultiCtx(ctx, []int{key})
}

// SubscribeMulti is Subscribe for all keys, with one request per maxBatch
// chunk (all chunks in flight together).
func (c *Client) SubscribeMulti(keys []int) error {
	return c.SubscribeMultiCtx(context.Background(), keys)
}

// SubscribeMultiCtx is SubscribeMulti bounded by ctx.
func (c *Client) SubscribeMultiCtx(ctx context.Context, keys []int) error {
	if len(keys) == 0 {
		return nil
	}
	_, err := c.multi(ctx, keys, nil, func(chunk []int) netproto.Message {
		ks := make([]int64, len(chunk))
		for i, k := range chunk {
			ks[i] = int64(k)
		}
		return &netproto.SubscribeMulti{Keys: ks}
	})
	return err
}

// Unsubscribe withdraws interest and drops the local entry.
func (c *Client) Unsubscribe(key int) error {
	return c.UnsubscribeCtx(context.Background(), key)
}

// UnsubscribeCtx is Unsubscribe bounded by ctx. It is the eviction protocol
// run by hand: the key is dropped, queued, and the mute queue sent at once in
// a standalone Mute frame, so the server drops the subscription and stops
// pushing it. A push that crosses the frame is ignored like any push for a
// key not held. An open Watch over the key keeps its pushes coming — the mute
// is withheld until the watch closes, and a reconnect replays the key. The
// request is fire-and-forget, written from the calling goroutine; ctx is
// checked only before it, as a write the server does not read blocks until
// the stream dies. During an outage, with reconnection enabled, dropping the
// key is the whole job — the subscription died with the stream, and the
// replay skips a key neither held nor watched — so the call succeeds locally.
func (c *Client) UnsubscribeCtx(ctx context.Context, key int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.side.Drop(key)
	s, m, err := c.sess, (*netproto.Mute)(nil), error(nil)
	if !c.down {
		m = c.muteFrameLocked()
	} else if !c.policy.Enabled {
		err = c.closeReasonLocked()
	}
	c.mu.Unlock()
	if m == nil {
		return err
	}
	if c.send(s, m) != nil && !c.policy.Enabled {
		<-s.dead // the failed write closed s; its read loop types the loss
		return c.closeReason()
	}
	return nil
}

// Get returns the locally cached approximation. With the connection down
// the answer is the last-known interval, and Stats.Degraded reports the
// outage.
func (c *Client) Get(key int) (interval.Interval, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.side.Get(key)
}

// ReadExact fetches the exact value of key from the server — a
// query-initiated refresh. The accompanying fresh interval is installed
// locally.
func (c *Client) ReadExact(key int) (float64, error) {
	return c.ReadExactCtx(context.Background(), key)
}

// ReadExactCtx is ReadExact bounded by ctx: an already-done context fails
// before any frame is written, and cancellation mid-call frees the
// correlation slot immediately (a late response is applied as unsolicited
// traffic).
func (c *Client) ReadExactCtx(ctx context.Context, key int) (float64, error) {
	vals, err := c.ReadMultiCtx(ctx, []int{key})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// multiCall tracks one in-flight chunk of a multi-key request.
type multiCall struct {
	id    uint64
	ch    chan callResult
	start time.Time
	n     int
}

// multi runs a multi-key request as maxBatch-sized chunks, issuing every
// chunk before awaiting any: the round-trip cost is one RTT however many
// chunks the key set spans. build turns one chunk of keys into the request
// message (which startCall releases); vals, if non-nil, receives each reply's
// values in keys order. It returns how many keys awaited replies answered,
// and the first failure; the chunks not yet awaited are then abandoned
// instead of awaited in turn: their slots are freed now, and late replies are
// applied as unsolicited traffic.
func (c *Client) multi(ctx context.Context, keys []int, vals []float64, build func(chunk []int) netproto.Message) (answered int, err error) {
	var first [1]multiCall // one chunk, the common case, allocates nothing here
	calls := first[:0]
	for off := 0; off < len(keys) && err == nil; off += maxBatch {
		end := min(off+maxBatch, len(keys))
		cc := multiCall{n: end - off}
		var chunkVals []float64
		if vals != nil {
			chunkVals = vals[off:end]
		}
		if cc.id, cc.ch, cc.start, err = c.startCall(ctx, nil, build(keys[off:end]), chunkVals); err == nil {
			calls = append(calls, cc)
		}
	}
	for _, cc := range calls {
		if err != nil {
			c.abandon(cc.id)
			continue
		}
		res := c.await(ctx, cc.id, cc.ch, cc.start)
		if err = res.err; err != nil {
			continue
		}
		if res.typ != netproto.TRefreshBatch || res.n != cc.n {
			err = fmt.Errorf("client: malformed reply (%s of %d items) to a %d-key request", res.typ, res.n, cc.n)
			continue
		}
		answered += cc.n
	}
	return answered, err
}

// ReadMulti fetches the exact values of all keys — query-initiated
// refreshes — in one pipelined round trip, installing the accompanying
// fresh intervals. The result is in keys order.
func (c *Client) ReadMulti(keys []int) ([]float64, error) {
	return c.ReadMultiCtx(context.Background(), keys)
}

// ReadMultiCtx is ReadMulti bounded by ctx: an already-done context fails
// before any frame is written, and cancellation mid-flight abandons every
// outstanding chunk (their correlation slots are freed; late responses are
// applied as unsolicited traffic).
func (c *Client) ReadMultiCtx(ctx context.Context, keys []int) ([]float64, error) {
	if len(keys) == 0 {
		return nil, ctx.Err()
	}
	out := make([]float64, len(keys))
	fetched, err := c.multi(ctx, keys, out, func(chunk []int) netproto.Message {
		m := netproto.GetReadMulti()
		for _, k := range chunk {
			m.Keys = append(m.Keys, int64(k))
		}
		return m
	})
	c.mu.Lock()
	c.side.Fetched(fetched)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	return c.PingCtx(context.Background())
}

// PingCtx is Ping bounded by ctx.
func (c *Client) PingCtx(ctx context.Context) error {
	return c.call(ctx, nil, &netproto.Ping{}, nil).err
}

// Query executes a bounded-aggregate query against the local cache,
// fetching exact values from the server as needed to meet q.Delta. All keys
// needing refinement within a fetch round are read with one ReadMulti (SUM
// and AVG always need exactly one round), so the round-trip count does not
// grow with the refresh-set size. It returns the bounding answer and any
// network error encountered while fetching; after the first fetch error no
// further fetches are issued.
func (c *Client) Query(q query.Query) (query.Answer, error) {
	return c.QueryCtx(context.Background(), q)
}

// QueryCtx is Query bounded by ctx. Cancellation is honored between
// refinement rounds as well as inside each fetch: a cancelled MAX/MIN query
// stops mid-ramp instead of running its remaining rounds against a context
// its caller has abandoned. A query of no keys, of a kind outside SUM..AVG
// or of a negative or NaN Delta is refused before anything is sent; +Inf
// asks for any bound at all.
func (c *Client) QueryCtx(ctx context.Context, q query.Query) (query.Answer, error) {
	if len(q.Keys) == 0 || q.Kind < query.Sum || q.Kind > query.Avg { // query.Plan panics on both
		return query.Answer{}, fmt.Errorf("client: cannot answer %v over %d keys", q.Kind, len(q.Keys))
	}
	if !(q.Delta >= 0) {
		return query.Answer{}, fmt.Errorf("client: query delta %g outside [0, +Inf]", q.Delta)
	}
	// Look every key up once, in order, under one acquisition of mu instead
	// of contending with the read loop's installs once per key.
	held := make([]interval.Interval, 0, len(q.Keys))
	c.mu.Lock()
	held = query.Held(held, q.Keys, c.side.Get)
	c.mu.Unlock()
	var fetchErr error
	ans, err := query.Plan(ctx, q, held, func(keys []int, vals []float64) {
		if fetchErr == nil {
			// Once one fails, fetch no more: a failed connection would
			// otherwise be retried once per remaining fetch round.
			var got []float64
			if got, fetchErr = c.ReadMultiCtx(ctx, keys); fetchErr == nil {
				copy(vals, got)
				return
			}
		}
		clear(vals) // not answered from: fetchErr is returned instead
	}, query.DefaultRamp, nil)
	if fetchErr != nil {
		return query.Answer{}, fetchErr
	}
	if err != nil {
		return query.Answer{}, err
	}
	return ans, nil
}

// Watch opens a streaming subscription over keys: the handle's Updates
// channel delivers every refresh the client applies for them — the initial
// approximations, pushed value-initiated refreshes, and the intervals
// accompanying exact reads — as Update values. See WatchCtx.
func (c *Client) Watch(keys ...int) (*watch.Watch, error) {
	return c.WatchCtx(context.Background(), keys...)
}

// WatchCtx is Watch with ctx bounding the initial subscription round trip.
//
// The stream applies per-key latest-wins coalescing when the consumer falls
// behind — mirroring the server's push merge buffer — so a slow consumer
// never stalls the connection's read loop and never observes a key's state
// older than the last one it was shown. A watched key stays subscribed, and
// is replayed by a reconnect, whether or not the store holds it. Close
// detaches the stream; a key the store does not hold is then muted at its
// next push. If the connection dies the stream ends and Err reports why. Watching a
// key the server does not host fails with an error matching ErrUnknownKey.
func (c *Client) WatchCtx(ctx context.Context, keys ...int) (*watch.Watch, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("client: watch of no keys")
	}
	ks := append([]int(nil), keys...) // detach from the caller's backing array
	var w *watch.Watch
	w = watch.New(func(*watch.Watch) {
		c.mu.Lock()
		c.side.Unwatch(w, ks)
		c.mu.Unlock()
	})
	// Register before subscribing so the initial refreshes — and any push
	// racing them — are observed from the first frame on.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		w.Close()
		return nil, c.closeReason()
	}
	c.side.Watch(w, ks)
	c.mu.Unlock()
	if err := c.SubscribeMultiCtx(ctx, ks); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// registerMsg builds the wire registration for a standing query.
func registerMsg(q *cacheside.Query) *netproto.RegisterQuery {
	m := &netproto.RegisterQuery{QID: q.QID, Kind: q.Kind, Delta: q.Delta, Keys: make([]int64, len(q.Keys))}
	for i, k := range q.Keys {
		m.Keys[i] = int64(k)
	}
	return m
}

// WatchQuery is WatchQueryCtx with a background context.
func (c *Client) WatchQuery(kind query.AggKind, delta float64, keys ...int) (*watch.Watch, error) {
	return c.WatchQueryCtx(context.Background(), kind, delta, keys...)
}

// WatchQueryCtx registers a standing continuous query — a bounded aggregate
// (SUM/MAX/MIN/AVG) over keys with precision budget delta — and returns a
// watch streaming its answer: the server maintains the aggregate
// incrementally off the push path and sends an update only when the answer
// the client holds stops being true, so a standing query costs a small
// fraction of the refresh traffic of subscribing to the keys, let alone of
// polling Query in a loop. Each Update's Interval is an envelope delta wide
// (Width() <= delta, exactly) around the aggregate as of its delivery: it
// is guaranteed to contain the true aggregate from then until the next
// delivery, which comes only once the aggregate may have left it. Value is
// the server's center estimate at delivery time, not a live one — between
// deliveries the aggregate moves inside the envelope unreported.
// Update.Key is the query's internal handle, not a source key. ctx bounds
// the registration round trip. A kind outside SUM..AVG is refused before
// anything is sent.
//
// Close withdraws the registration from the server. Across a reconnect the
// registration is replayed automatically.
func (c *Client) WatchQueryCtx(ctx context.Context, kind query.AggKind, delta float64, keys ...int) (*watch.Watch, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("client: query watch of no keys")
	}
	if delta < 0 || math.IsNaN(delta) || math.IsInf(delta, 1) {
		return nil, fmt.Errorf("client: query delta %g outside [0, +Inf)", delta)
	}
	if kind < query.Sum || kind > query.Avg {
		return nil, fmt.Errorf("client: unknown aggregate %v", kind)
	}
	q := &cacheside.Query{Kind: kind, Delta: delta, Keys: append([]int(nil), keys...)}
	q.W = watch.New(func(*watch.Watch) { c.unwatchQuery(q) })
	// Publish the registration before the call so the ack's initial answer
	// — and any push racing it — reaches the watch from the first frame on.
	// The call is bound to the session it was published on: a reconnect's
	// replay registers every query published before the new session came
	// up, so this call must not reach that session too.
	c.mu.Lock()
	if c.closed || c.down {
		err := c.closeReasonLocked()
		c.mu.Unlock()
		q.W.Close()
		return nil, err
	}
	c.side.AddQuery(q)
	s := c.sess
	c.mu.Unlock()
	res := c.call(ctx, s, registerMsg(q), nil)
	if res.err != nil {
		q.W.Close()
		return nil, res.err
	}
	if res.typ != netproto.TQueryUpdate {
		q.W.Close()
		return nil, fmt.Errorf("client: malformed RegisterQuery response %s", res.typ)
	}
	return q.W, nil
}

// unwatchQuery is the query watch's unregister hook: it removes the
// desired-state entry and withdraws the server-side registration
// (fire-and-forget, like a Mute). During an outage the registration
// died with the stream, so removing it from the replay set is the whole
// job.
func (c *Client) unwatchQuery(q *cacheside.Query) {
	c.mu.Lock()
	if !c.side.RemoveQuery(q) || c.closed || c.down {
		// Already detached by a teardown, or the registration died with the
		// stream.
		c.mu.Unlock()
		return
	}
	s := c.sess
	c.mu.Unlock()
	c.send(s, &netproto.UnregisterQuery{QID: q.QID}) // a failed write is the stream's loss, which its read loop handles
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	side := c.side.Stats()
	return Stats{
		ValueRefreshes: side.ValueRefreshes,
		QueryRefreshes: side.QueryRefreshes,
		FramesSent:     int(c.framesSent.Load()),
		FramesReceived: int(c.framesRecv.Load()),
		SmoothedRTT:    time.Duration(c.rttEWMA.Load()),
		Reconnects:     c.reconnects,
		Queries:        side.Queries,
		Degraded:       !c.downSince.IsZero(),
		MutesSent:      side.MutesSent,
		PushesIgnored:  side.PushesIgnored,
		Cache:          side.Cache,
	}
}

// Close tears down the connection, cancels any reconnection in progress,
// and waits for the client's goroutines.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.byUser = true
	s := c.sess
	lost := s.lost // its read loop already closed it
	ws := c.side.Detach()
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	fail(ws, ErrClosed)
	err := s.conn.Close()
	<-s.dead
	c.wg.Wait()
	if already || lost {
		return nil
	}
	return err
}
