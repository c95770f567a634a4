// Package client implements the cache side of the networked deployment: it
// maintains a local store of interval approximations fed by server pushes
// (value-initiated refreshes), fetches exact values on demand
// (query-initiated refreshes), and executes bounded-aggregate queries
// against the combination, mirroring the simulator's cache but over TCP.
//
// The client core is pipelined: requests are enqueued onto a send queue and
// matched to responses through a correlation table keyed by request ID, so
// any number of calls may be in flight on the one connection at a time. A
// dedicated writer goroutine drains the queue, encoding the whole drain into
// one reused buffer and flushing it with a single write, so backed-up
// requests share a syscall. Queries collect every key needing refinement in
// one pass and fetch them with a single ReadMulti instead of one blocking
// round trip per key.
//
// The wire path is allocation-free in steady state: outbound requests and
// inbound responses travel as pooled netproto messages (released by the
// writer after encoding and by callers after reading), the read loop decodes
// through a reusing netproto.StreamDecoder, and per-call timers and result
// channels are pooled.
//
// Every stream opens with a Hello/HelloAck handshake at the one protocol
// version (netproto.Version). A peer that refuses the Hello, or acks any
// other version, fails Dial — and a redial attempt — with an error matching
// aperrs.ErrHandshakeRefused.
//
// # Evictions and mutes
//
// The local store is smaller than the key space, and the paper keeps its
// evictions silent: no message is sent for one. The client keeps that — and
// still stops the server pushing refreshes it would throw away — by naming
// the keys it does not hold on the tail of the next ReadMulti it sends
// anyway. The server mutes those subscriptions (their widths keep adapting,
// nothing ships) until the client reads or subscribes them again. Four
// rules make this safe while replies are in flight; internal/source states
// them with the argument. The client's three:
//
//   - R1. A push (ID 0) never admits a key the store does not hold; only a
//     reply can. Watches are notified either way.
//   - R2. A key an install leaves outside the store — evicted, rejected, or
//     ignored under R1 — is queued unless a watch needs its pushes,
//     and the queue rides out on the next ReadMulti: the keys still not held
//     and still unwatched, with Seen sampled in the same critical section.
//   - R3. Seen counts the session's reply frames, each only once its
//     installs are complete.
//
// A lost or refused mute heals itself: the key's next push is ignored under
// R1 and queues it again. Unsubscribe is the same mechanism with an
// immediate standalone Mute frame; so is a client that stopped reading and
// whose queue passed muteFlushAt.
//
// # API v1
//
// Every blocking method has a context variant (ReadExactCtx, ReadMultiCtx,
// QueryCtx, ...): a context deadline or cancellation bounds the call — an
// already-done context fails before a frame is written, and cancellation
// mid-call frees the correlation slot immediately while a late response is
// applied as unsolicited traffic. Calls whose context carries no deadline
// fall back to the SetTimeout default. Watch turns the pushes the read loop
// applies into an observable stream with per-key latest-wins coalescing,
// and failures carry the apcache error taxonomy: the server's structured
// error frame makes errors.Is(err, aperrs.ErrUnknownKey) hold across the
// TCP boundary.
//
// # Fault-tolerant sessions
//
// The connection is a session that can outlive any single TCP stream. With
// Config.Reconnect enabled, a transport failure does not kill the client:
// in-flight calls fail promptly with an error matching aperrs.ErrConnLost
// (so callers can errors.Is and retry), and a redial loop — exponential
// backoff with full jitter, capped, optionally bounded by MaxAttempts —
// re-establishes the connection, re-runs the protocol handshake, and replays
// the client's desired state: every live subscription, and every key the
// store holds through reads, goes back out in batched SubscribeMulti chunks,
// so learned approximations flow again without caller involvement and no
// held interval is left without a subscription refreshing it.
// Open Watch streams are not failed; they observe an EventDisconnected /
// EventReconnected pair and keep streaming across the gap. Local reads during
// the outage are degraded, not refused: the last-known interval, flagged
// stale by GetApprox, its width optionally growing at
// Config.StaleWidthGrowth — principled in this system because an interval's
// width is an explicit statement of its uncertainty.
package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/cache"
	"apcache/internal/interval"
	"apcache/internal/netproto"
	"apcache/internal/query"
	"apcache/internal/watch"
	"apcache/internal/workload"
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

// Is maps the wire error code onto the apcache sentinels. No current
// server path emits CodeBatchTooLarge (an oversized inbound frame is
// rejected at decode time, before its request ID is known); the mapping
// exists so a future server that can reply before teardown needs no
// client change.
func (e *ServerError) Is(target error) bool {
	switch e.Code {
	case netproto.CodeUnknownKey:
		return target == aperrs.ErrUnknownKey
	case netproto.CodeBatchTooLarge:
		return target == aperrs.ErrBatchTooLarge
	default:
		return false
	}
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
	// redialed, re-ran the handshake, and replayed the subscription
	// set after a transport failure (see Config.Reconnect).
	Reconnects int
	// Queries is the number of standing continuous queries currently
	// registered (see WatchQuery).
	Queries int
	// Degraded reports that the connection is currently down: local reads
	// are serving last-known state while the redial loop (if enabled)
	// works on recovery. It clears once the subscription set has been
	// replayed.
	Degraded bool
	// MutesSent counts keys announced to the server as not held, on
	// ReadMulti tails and standalone Mute frames.
	MutesSent int
	// PushesIgnored counts pushes for keys the store did not hold, which
	// never admit (rule R1). Nonzero growth in steady state means the server
	// is pushing keys it was told about: refused mutes, or a queue that is
	// not draining.
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
	// to calls whose context carries no deadline of its own; see
	// Client.SetTimeout.
	Timeout time.Duration
	// RampFactor sets the geometric growth of the batched MAX/MIN
	// refinement rounds (see query.ExecuteBatchRamp): round r fetches
	// ceil(RampFactor^r) top candidates, so larger factors spend fewer
	// round trips and more over-fetching, and round 1 always carries every
	// uncached key. 1 is refresh-minimal: exactly the paper's refresh set,
	// the bounded keys one per round. 0 (the default) selects 8. Values below
	// 1 (other than 0), NaN, and +Inf are rejected by DialConfig.
	RampFactor float64
	// Reconnect configures automatic redial after a transport failure. The
	// zero value disables it — a transport failure then closes the client,
	// exactly the historical behavior; set Enabled to opt in. See
	// ReconnectPolicy.
	Reconnect ReconnectPolicy
	// StaleWidthGrowth widens the intervals served while the connection is
	// down (local reads keep answering from the last-known approximations,
	// and GetApprox flags them Stale) at this rate — value units per second
	// of outage, split evenly between both bounds — so a degraded answer's
	// width keeps stating honest uncertainty about a source that may be
	// drifting unobserved. 0 leaves widths frozen. Must be finite and
	// non-negative.
	StaleWidthGrowth float64
}

// DefaultReconnectBase and DefaultReconnectCap are the backoff bounds an
// Enabled but otherwise zero ReconnectPolicy uses.
const (
	DefaultReconnectBase = 50 * time.Millisecond
	DefaultReconnectCap  = 5 * time.Second
)

// ReconnectPolicy drives the client's automatic redial loop. When a live
// connection dies, in-flight calls fail with an error matching
// aperrs.ErrConnLost, and — with Enabled set — the client redials in the
// background: each attempt re-dials the original address, re-runs the
// protocol handshake, and replays every live subscription in batched
// SubscribeMulti chunks before the session is considered recovered. Open
// Watch streams ride across the gap, observing an
// EventDisconnected/EventReconnected pair instead of failing. Calls started
// during the outage fail fast with the same typed loss, so callers retry on
// errors.Is(err, ErrConnLost).
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
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultReconnectBase
	}
	ceil := p.MaxDelay
	if ceil <= 0 {
		ceil = DefaultReconnectCap
	}
	if ceil < base {
		ceil = base
	}
	bound := base
	for i := 0; i < attempt && bound < ceil; i++ {
		bound *= 2
	}
	if bound > ceil {
		bound = ceil
	}
	d := time.Duration(r * float64(bound))
	if d < 0 {
		d = 0
	}
	if d > bound {
		d = bound
	}
	return d
}

// Approx is a locally served approximation together with its degradation
// status: Stale reports it was read during an outage and Age how long the
// connection has been down. A stale interval's width grows at
// Config.StaleWidthGrowth, so it remains an honest statement of uncertainty
// about a source that may be drifting unobserved.
type Approx struct {
	Interval interval.Interval
	Stale    bool
	Age      time.Duration
}

// maxBatch caps the keys per ReadMulti/SubscribeMulti chunk, the keys on a
// mute tail, and the requests one writer drain takes.
const maxBatch = 128

// muteFlushAt is the mute-queue length past which a client sends a
// standalone Mute frame instead of waiting for a ReadMulti to carry the
// keys. A client with read traffic drains the queue on every fetch and never
// gets there.
const muteFlushAt = 64

// defaultRamp is the MAX/MIN refinement ramp when Config.RampFactor is unset.
// A round trip costs two orders of magnitude more than the source-side
// refresh it carries (83–105× on loopback), so rounds are worth saving up to
// the point where the over-fetch octuples the minimal refresh set.
const defaultRamp = 8.0

// callResult resolves one in-flight request: the matching response message,
// or the error the server reported for it. at is the read loop's receive
// timestamp, so the RTT sample measures send-to-receive even when the
// caller consumes pipelined responses sequentially (awaiting chunk k only
// after chunks 1..k-1 would otherwise inflate the smoothed RTT).
type callResult struct {
	msg netproto.Message
	err error
	at  time.Time
}

// sess is one TCP stream of the client's logical session. The redial loop
// replaces the whole struct under mu, so the read and write loops of a dead
// stream never share channels with its replacement.
type sess struct {
	conn      net.Conn
	sendq     chan netproto.Message // feeds this stream's writer goroutine
	dead      chan struct{}         // closed when the stream's read loop exits
	writeDone chan struct{}         // closed when the stream's writer exits
}

func newSess(conn net.Conn) *sess {
	return &sess{
		conn:      conn,
		sendq:     make(chan netproto.Message, 256),
		dead:      make(chan struct{}),
		writeDone: make(chan struct{}),
	}
}

// Client is a networked approximate cache. All methods are safe for
// concurrent use.
type Client struct {
	// addr is the dial target, kept for the redial loop. The knobs below
	// it are immutable after DialConfig.
	addr        string
	policy      ReconnectPolicy
	staleGrowth float64

	// mu guards the local store, the correlation table, the watch
	// registry, the counters, and the session/reconnect state. It is
	// never held across a network operation.
	mu       sync.Mutex
	sess     *sess
	store    *cache.Cache
	pending  map[uint64]chan callResult
	watchers watch.Registry       // watches by observed key
	subs     map[int]struct{}     // desired-state subscriptions, replayed on reconnect
	queries  map[uint64]*queryReg // standing continuous queries by QID, replayed on reconnect
	nextQID  uint64
	nextID   uint64
	closed   bool
	byUser   bool // closed by an explicit Close, not a transport failure
	vir      int
	qir      int
	readErr  error

	// muteq holds keys an install left outside the store, waiting to be
	// announced (R2). seen numbers the reply frames this session has fully
	// installed (R3): every frame with a nonzero ID, and every Pong, HelloAck
	// and Error2, is one reply. Both restart with each session.
	muteq         map[int]struct{}
	seen          uint64
	mutesSent     int
	pushesIgnored int

	// down marks the gap between a stream dying and the redial loop
	// publishing its replacement: calls started inside it fail fast with
	// the typed loss. reconnecting is true while a redial goroutine runs;
	// downSince anchors the outage's age for stale reads and clears only
	// once the subscription set has been replayed.
	down         bool
	reconnecting bool
	downSince    time.Time
	reconnects   int

	// closeCh aborts the redial loop's backoff sleeps; redialWG lets
	// Close join the loop.
	closeCh   chan struct{}
	closeOnce sync.Once
	redialWG  sync.WaitGroup

	// defTimeout is the default per-call deadline in nanoseconds, applied
	// when a call's context carries no deadline. Atomic so SetTimeout can
	// race in-flight calls without a lock: each call snapshots it once.
	defTimeout atomic.Int64

	// rttEWMA smooths observed call round-trip times (alpha = 1/8).
	// Nanoseconds; 0 = no sample yet.
	rttEWMA atomic.Int64

	ramp float64 // MAX/MIN refinement ramp factor

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
	ramp := cfg.RampFactor
	if ramp != 0 && (ramp < 1 || math.IsNaN(ramp) || math.IsInf(ramp, 1)) {
		return nil, fmt.Errorf("client: ramp factor %g outside [1, +Inf)", ramp)
	}
	if ramp == 0 {
		ramp = defaultRamp
	}
	if cfg.StaleWidthGrowth < 0 || math.IsNaN(cfg.StaleWidthGrowth) || math.IsInf(cfg.StaleWidthGrowth, 1) {
		return nil, fmt.Errorf("client: stale width growth %g outside [0, +Inf)", cfg.StaleWidthGrowth)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := &Client{
		addr:        addr,
		policy:      cfg.Reconnect,
		staleGrowth: cfg.StaleWidthGrowth,
		store:       cache.New(cfg.CacheSize),
		pending:     make(map[uint64]chan callResult),
		subs:        make(map[int]struct{}),
		queries:     make(map[uint64]*queryReg),
		muteq:       make(map[int]struct{}),
		ramp:        ramp,
		closeCh:     make(chan struct{}),
	}
	c.defTimeout.Store(int64(timeout))
	s := newSess(conn)
	c.sess = s
	go c.readLoop(s)
	go c.writeLoop(s)
	if err := c.handshake(context.Background()); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake opens a stream: it offers netproto.Version and requires the
// peer to ack exactly that version. A peer that answers Hello with an error
// frame, or acks any other version, speaks a different protocol; the stream
// is unusable and the failure matches aperrs.ErrHandshakeRefused. It runs at
// Dial time and again on every reconnect.
func (c *Client) handshake(ctx context.Context) error {
	msg, err := c.call(ctx, &netproto.Hello{Version: netproto.Version})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			return fmt.Errorf("client: %w: %s", aperrs.ErrHandshakeRefused, se.Msg)
		}
		return fmt.Errorf("client: handshake: %w", err)
	}
	ack, ok := msg.(*netproto.HelloAck)
	if !ok {
		return fmt.Errorf("client: %w: %T in reply to Hello", aperrs.ErrHandshakeRefused, msg)
	}
	if ack.Version != netproto.Version {
		return fmt.Errorf("client: %w: peer acked protocol version %d, this client speaks only %d", aperrs.ErrHandshakeRefused, ack.Version, netproto.Version)
	}
	return nil
}

// SetTimeout adjusts the default per-request deadline (default 10s). The
// default applies only to calls whose context carries no deadline of its
// own: a per-call context deadline or cancellation always wins, and such
// calls fail with the context's error (context.DeadlineExceeded /
// context.Canceled) while default-deadline expiries fail with an error
// matching both ErrTimeout and context.DeadlineExceeded. d <= 0 disables
// the default entirely — calls without a context deadline then wait until
// the response arrives or the connection dies. SetTimeout is safe to call
// concurrently with in-flight calls; each call snapshots the value once
// when it starts.
func (c *Client) SetTimeout(d time.Duration) {
	c.defTimeout.Store(int64(d))
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

// readLoop dispatches one stream's inbound frames: responses to waiting
// requests, pushes into the local store. It owns a reusing
// netproto.StreamDecoder, so handleMsg must never hand a decoded message
// itself to a waiter — waiters get copies. On a read or decode error the
// stream is gone: connLost fails the in-flight calls and decides between
// teardown and reconnection.
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
// loop. Every in-flight call fails (their result channels close; awaiters
// surface the typed loss via closeReason). Then, either the client closes —
// reconnect disabled, or the user closed it — and the watches fail; or
// recovery is handed to the redial loop and the watches stay attached,
// observing EventDisconnected instead.
func (c *Client) connLost(s *sess, err error) {
	c.mu.Lock()
	if c.sess != s {
		// A stream the redial loop already replaced; its state is gone.
		c.mu.Unlock()
		return
	}
	c.readErr = err
	c.down = true
	if !c.byUser && c.downSince.IsZero() {
		c.downSince = time.Now()
	}
	retry := c.policy.Enabled && !c.byUser && !c.closed
	if !retry {
		c.closed = true
	}
	for _, ch := range c.pending {
		close(ch)
	}
	c.pending = map[uint64]chan callResult{}
	// Collect the live watches (deduplicated: one watch may observe many
	// keys). The terminal path detaches the registry so late Notify calls
	// are no-ops; the retry path leaves it intact — the same watches
	// resume when the replayed subscriptions start refreshing again.
	var failed, live []*watch.Watch
	spawn := false
	if retry {
		if !c.reconnecting {
			// First loss of an established session: announce the outage
			// and start the redial loop. A half-established reconnect
			// attempt dying lands here too and changes nothing — the
			// running loop already owns recovery.
			c.reconnecting = true
			spawn = true
			live = c.watchers.All()
			for _, q := range c.queries {
				live = append(live, q.w)
			}
		}
	} else {
		failed = c.watchers.Detach()
		failed = append(failed, c.detachQueriesLocked()...)
	}
	byUser := c.byUser
	c.mu.Unlock()
	s.conn.Close() // stop the stream's writer when the loss was a decode error, not a dead socket
	// Fail the watches outside mu (Fail runs the unregister hook, which
	// relocks). An explicitly closed client surfaces as ErrClosed;
	// anything else as the typed connection loss.
	werr := err
	if byUser || errors.Is(err, net.ErrClosed) {
		werr = ErrClosed
	} else {
		werr = aperrs.ConnLost(err)
	}
	for _, w := range failed {
		w.Fail(werr)
	}
	for _, w := range live {
		w.NotifyEvent(watch.EventDisconnected)
	}
	if spawn {
		c.redialWG.Add(1)
		go c.redial()
	}
}

// redial re-establishes the session: exponential backoff with full jitter
// between attempts, each attempt a fresh dial, handshake, and replay of the
// desired-state subscription set. It exits when a reconnect succeeds, the
// client closes, or MaxAttempts consecutive failures exhaust the policy.
func (c *Client) redial() {
	defer c.redialWG.Done()
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
// closed underneath the attempt.
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
	c.down = false
	c.seen = 0 // the new stream numbers its replies from its HelloAck
	clear(c.muteq)
	// Replay the subscriptions asked for and every key the store holds
	// through reads: a held interval nobody refreshes would be served stale
	// for good.
	keys := c.store.Keys()
	for k := range c.subs {
		if !c.store.Contains(k) {
			keys = append(keys, k)
		}
	}
	c.mu.Unlock()
	go c.readLoop(s)
	go c.writeLoop(s)
	ctx, cancel := context.WithTimeout(context.Background(), c.stepTimeout())
	err = c.handshake(ctx)
	cancel()
	if err != nil {
		c.failSession(s)
		return false
	}
	if len(keys) > 0 {
		sort.Ints(keys) // deterministic replay order
		ctx, cancel := context.WithTimeout(context.Background(), c.stepTimeout())
		err := c.SubscribeMultiCtx(ctx, keys)
		cancel()
		if err != nil {
			c.failSession(s)
			return false
		}
	}
	if !c.replayQueries(s) {
		return false
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return true
	}
	c.reconnecting = false
	c.downSince = time.Time{}
	c.readErr = nil
	c.reconnects++
	live := c.watchers.All()
	for _, q := range c.queries {
		live = append(live, q.w)
	}
	c.mu.Unlock()
	for _, w := range live {
		w.NotifyEvent(watch.EventReconnected)
	}
	return true
}

// replayQueries restores the rest of the desired state after a reconnect:
// standing continuous queries are re-registered under their original QIDs,
// so open WatchQuery streams resume without caller involvement. It reports
// false when a failure killed the attempt (failSession has run).
func (c *Client) replayQueries(s *sess) bool {
	c.mu.Lock()
	regs := make([]*queryReg, 0, len(c.queries))
	for _, q := range c.queries {
		regs = append(regs, q)
	}
	c.mu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].qid < regs[j].qid })
	for _, q := range regs {
		ctx, cancel := context.WithTimeout(context.Background(), c.stepTimeout())
		msg, err := c.call(ctx, q.registerMsg())
		cancel()
		if err != nil {
			c.failSession(s)
			return false
		}
		netproto.Release(msg)
	}
	return true
}

// failSession abandons a half-established reconnect attempt: kill the
// stream and wait for its loops, so consecutive attempts never overlap. The
// stream's connLost sees reconnecting already set and leaves recovery to
// the caller.
func (c *Client) failSession(s *sess) {
	s.conn.Close()
	<-s.dead
	<-s.writeDone
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
	failed := c.watchers.Detach()
	failed = append(failed, c.detachQueriesLocked()...)
	c.mu.Unlock()
	werr := aperrs.ConnLost(err)
	for _, w := range failed {
		w.Fail(werr)
	}
}

// detachQueriesLocked empties the standing-query table and returns the
// watches that were attached, for the caller to fail outside mu. Clearing
// the table first makes each watch's unregister hook a no-op. Caller holds
// mu.
func (c *Client) detachQueriesLocked() []*watch.Watch {
	if len(c.queries) == 0 {
		return nil
	}
	ws := make([]*watch.Watch, 0, len(c.queries))
	for qid, q := range c.queries {
		delete(c.queries, qid)
		ws = append(ws, q.w)
	}
	return ws
}

// stepTimeout bounds one reconnection step (handshake, subscription
// replay): the default call timeout when one is set, a conservative
// constant when the default is disabled.
func (c *Client) stepTimeout() time.Duration {
	if t := time.Duration(c.defTimeout.Load()); t > 0 {
		return t
	}
	return 10 * time.Second
}

// handleMsg routes one inbound frame. msg is owned by the read loop's decoder
// and valid only for this call: a waiting request gets a copy — pooled for
// the hot response types, released by the awaiting caller — never the
// decoder's box. The push path (no waiter) installs and copies nothing.
//
// A frame that is not a push is one reply of the server's numbering, and seen
// advances past it in the critical section that completes its installs (R3)
// — before the waiter can act on the result, so the next request's mutes
// are judged against a count that includes it.
func (c *Client) handleMsg(msg netproto.Message) {
	switch m := msg.(type) {
	case *netproto.Refresh:
		c.mu.Lock()
		c.installLocked(m.Key, m.Lo, m.Hi, m.OriginalWidth, m.ID == 0)
		if m.ID != 0 {
			c.seen++
		}
		c.flushMutesLocked()
		if m.Kind == netproto.KindValueInitiated {
			c.vir++
		}
		ch := c.takeLocked(m.ID)
		c.mu.Unlock()
		if ch != nil {
			cp := netproto.GetRefresh()
			*cp = *m
			ch <- callResult{msg: cp, at: time.Now()}
		}
	case *netproto.RefreshBatch:
		c.mu.Lock()
		for _, it := range m.Items {
			c.installLocked(it.Key, it.Lo, it.Hi, it.OriginalWidth, m.ID == 0)
			if it.Kind == netproto.KindValueInitiated {
				c.vir++
			}
		}
		if m.ID != 0 {
			c.seen++
		}
		c.flushMutesLocked()
		ch := c.takeLocked(m.ID)
		c.mu.Unlock()
		if ch != nil {
			cp := netproto.GetRefreshBatch()
			cp.ID = m.ID
			cp.Items = append(cp.Items[:0], m.Items...)
			ch <- callResult{msg: cp, at: time.Now()}
		}
	case *netproto.QueryUpdate:
		// Route the fresh answer to the standing query's watch whether or
		// not a registration call is waiting (the ack carries the initial
		// answer; pushes have ID 0 and only the watch).
		iv := interval.Interval{Lo: m.Lo, Hi: m.Hi}
		c.mu.Lock()
		q := c.queries[m.QID]
		if m.ID != 0 {
			c.seen++
		}
		ch := c.takeLocked(m.ID)
		c.mu.Unlock()
		if q != nil {
			q.w.NotifyVal(int(m.QID), iv, m.Value)
		}
		if ch != nil {
			cp := netproto.GetQueryUpdate()
			*cp = *m
			ch <- callResult{msg: cp, at: time.Now()}
		}
	case *netproto.Pong:
		c.resolve(m.ID, callResult{msg: &netproto.Pong{ID: m.ID}})
	case *netproto.HelloAck:
		cp := *m
		c.resolve(m.ID, callResult{msg: &cp})
	case *netproto.Error2:
		c.resolve(m.ID, callResult{err: &ServerError{Code: m.Code, Key: m.Key, Msg: m.Msg}})
	}
}

// takeLocked removes and returns the waiter for id, nil if none (push
// traffic uses ID 0; a late response whose call timed out has no waiter but
// its interval is still installed). Caller holds mu.
func (c *Client) takeLocked(id uint64) chan callResult {
	if id == 0 {
		return nil
	}
	ch, ok := c.pending[id]
	if !ok {
		return nil
	}
	delete(c.pending, id)
	return ch
}

// resolve hands a result to the waiter for id, if any, stamping the
// receive time for the waiter's RTT sample. These frames (Pong, HelloAck,
// Error2) are always replies, so seen advances.
func (c *Client) resolve(id uint64, res callResult) {
	c.mu.Lock()
	c.seen++
	ch := c.takeLocked(id)
	c.mu.Unlock()
	if ch != nil {
		res.at = time.Now()
		ch <- res
	}
}

// installLocked puts a refresh's interval into the local store and streams
// it to any watches observing the key. A push replaces a held entry and
// never admits a new one (R1); whatever key the install leaves outside the
// store — the victim, the rejected candidate, the ignored push's — is queued
// for muting (R2). Caller holds mu; Notify never blocks (latest-wins
// coalescing), so a slow watch consumer cannot stall the read loop.
func (c *Client) installLocked(key int64, lo, hi, originalWidth float64, push bool) {
	k := int(key)
	iv := interval.Interval{Lo: lo, Hi: hi}
	held := c.store.Contains(k)
	if push && !held {
		c.pushesIgnored++
		c.queueMuteLocked(k)
	} else if victim, evicted := c.store.Put(k, iv, originalWidth); evicted {
		c.queueMuteLocked(victim)
	} else if !held && !c.store.Contains(k) {
		c.queueMuteLocked(k) // the candidate lost to every resident
	}
	c.watchers.Notify(k, iv)
}

// queueMuteLocked queues a key the store does not hold for announcement,
// unless a watch consumes its pushes: such a key must stay live on the server
// even while the store does not hold it.
func (c *Client) queueMuteLocked(key int) {
	if !c.watchers.Watching(key) {
		c.muteq[key] = struct{}{}
	}
}

// flushMutesLocked sends the queue in a frame of its own once it has grown
// past muteFlushAt with no ReadMulti to carry it. The read loop calls it when
// a frame's installs are complete and seen has advanced past it — a mute
// sampled earlier would be refused for every key that frame carried. The send
// never blocks the read loop: keys a backed-up writer cannot take wait for
// the next attempt.
func (c *Client) flushMutesLocked() {
	if len(c.muteq) <= muteFlushAt || c.down || c.closed {
		return
	}
	m := &netproto.Mute{}
	if m.Seen, m.Keys = c.takeMutesLocked(nil); len(m.Keys) == 0 {
		return
	}
	select {
	case c.sess.sendq <- m:
	default:
		for _, k := range m.Keys {
			c.muteq[int(k)] = struct{}{}
		}
		c.mutesSent -= len(m.Keys)
	}
}

// takeMutesLocked moves up to one frame's worth of queued keys onto dst,
// keeping those still not held and still unwatched, and returns them with the
// reply count to judge them against — sampled here, in the critical section
// that checked the store, which is what R2 requires. Leftovers stay queued.
// A frame that then fails to reach the server loses its mutes; R1 re-queues
// such a key at its next push.
func (c *Client) takeMutesLocked(dst []int64) (seen uint64, keys []int64) {
	for k := range c.muteq {
		if len(dst) >= maxBatch {
			break
		}
		delete(c.muteq, k)
		if !c.store.Contains(k) && !c.watchers.Watching(k) {
			dst = append(dst, int64(k))
		}
	}
	c.mutesSent += len(dst)
	return c.seen, dst
}

// writeLoop drains one stream's send queue onto the wire: each request is a
// frame of its own, and one drain is encoded into one pooled buffer and
// flushed with a single write, so concurrent callers share syscalls. Every
// message is released back to its pool once encoded (the writer owns
// enqueued messages outright).
func (c *Client) writeLoop(s *sess) {
	defer close(s.writeDone)
	bp := netproto.GetBuf()
	defer netproto.PutBuf(bp)
	var drained []netproto.Message
	for {
		var first netproto.Message
		select {
		case first = <-s.sendq:
		case <-s.dead:
			return
		}
		drained = append(drained[:0], first)
	drain:
		for len(drained) < maxBatch {
			select {
			case m := <-s.sendq:
				drained = append(drained, m)
			default:
				break drain
			}
		}
		buf := (*bp)[:0]
		for _, m := range drained {
			var err error
			buf, err = netproto.AppendFrame(buf, m)
			netproto.Release(m)
			if err != nil {
				s.conn.Close() // wakes the stream's readLoop, which fails the pending calls
				return
			}
		}
		c.framesSent.Add(int64(len(drained)))
		*bp = buf
		if _, err := s.conn.Write(buf); err != nil {
			s.conn.Close()
			return
		}
		if cap(buf) > 1<<20 {
			// Don't pin one exceptional drain's high-water mark for the
			// connection's lifetime.
			*bp = nil
		}
	}
}

// stampID assigns the request ID on an outbound request message.
func stampID(m netproto.Message, id uint64) {
	switch v := m.(type) {
	case *netproto.Read:
		v.ID = id
	case *netproto.ReadMulti:
		v.ID = id
	case *netproto.Subscribe:
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

// startCall registers a waiter, stamps m with a fresh request ID, and
// enqueues it without blocking on the network: the pipelined half of a
// call. A context that is already done fails the call before anything
// touches the wire — no frame is written, no correlation slot survives.
// Ownership of m passes to the writer goroutine on success, which releases
// pooled messages after encoding; on failure startCall releases m itself —
// either way the caller must not touch m afterwards.
func (c *Client) startCall(ctx context.Context, m netproto.Message) (uint64, chan callResult, time.Time, error) {
	if err := ctx.Err(); err != nil {
		netproto.Release(m)
		return 0, nil, time.Time{}, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		netproto.Release(m)
		return 0, nil, time.Time{}, ErrClosed
	}
	if c.down {
		// The stream is down and the redial loop owns recovery; fail fast
		// with the typed loss instead of parking the call on a dead queue.
		err := c.closeReasonLocked()
		c.mu.Unlock()
		netproto.Release(m)
		return 0, nil, time.Time{}, err
	}
	s := c.sess
	c.nextID++
	id := c.nextID
	ch := resultChanPool.Get().(chan callResult)
	c.pending[id] = ch
	if rm, ok := m.(*netproto.ReadMulti); ok && len(c.muteq) > 0 {
		rm.Seen, rm.Mute = c.takeMutesLocked(rm.Mute)
	}
	c.mu.Unlock()
	stampID(m, id)
	start := time.Now()

	select {
	case s.sendq <- m:
		return id, ch, start, nil
	case <-ctx.Done():
		c.abandon(id)
		netproto.Release(m)
		return 0, nil, start, ctx.Err()
	case <-s.dead:
		c.abandon(id)
		netproto.Release(m)
		return 0, nil, start, c.closeReason()
	}
}

// await blocks for a started call's response, bounded by the call's context
// and — when the context carries no deadline — the client's default
// timeout. Cancellation and expiry both abandon the waiter: the correlation
// slot is freed immediately, and a response arriving later is treated as
// unsolicited push traffic (its interval is still installed). The result
// channel is returned to the pool only on the response path; an abandoned
// channel may still receive the late response's single buffered send and is
// left to the garbage collector.
func (c *Client) await(ctx context.Context, id uint64, ch chan callResult, start time.Time) (netproto.Message, error) {
	var t *time.Timer
	var expire <-chan time.Time
	var timeout time.Duration
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		if timeout = time.Duration(c.defTimeout.Load()); timeout > 0 {
			t, _ = timerPool.Get().(*time.Timer)
			if t == nil {
				t = time.NewTimer(timeout)
			} else {
				t.Reset(timeout)
			}
			expire = t.C
		}
	}
	select {
	case res, ok := <-ch:
		// Go 1.23+ timer semantics: receives after Stop block and Reset
		// discards stale fires, so no drain — it would deadlock when the
		// response races the expiry.
		if t != nil {
			t.Stop()
			timerPool.Put(t)
		}
		if !ok {
			// Closed by the read loop's teardown; the channel is dead.
			return nil, c.closeReason()
		}
		resultChanPool.Put(ch)
		if !res.at.IsZero() {
			c.observeRTT(res.at.Sub(start))
		}
		return res.msg, res.err
	case <-expire:
		timerPool.Put(t)
		c.abandon(id)
		return nil, &aperrs.TimeoutError{After: timeout}
	case <-ctx.Done():
		if t != nil {
			t.Stop()
			timerPool.Put(t)
		}
		c.abandon(id)
		return nil, ctx.Err()
	}
}

// abandon forgets a request that will no longer be awaited. A response
// arriving later is handled as unsolicited: its interval is still installed.
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call sends a request and waits for the matching response. Ownership of m
// passes to the writer; a returned hot-type response (Refresh/RefreshBatch)
// is a pooled copy the caller should Release once read.
func (c *Client) call(ctx context.Context, m netproto.Message) (netproto.Message, error) {
	id, ch, start, err := c.startCall(ctx, m)
	if err != nil {
		return nil, err
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

// Subscribe registers interest in key; the initial approximation lands in
// the local store.
func (c *Client) Subscribe(key int) error {
	return c.SubscribeCtx(context.Background(), key)
}

// SubscribeCtx is Subscribe bounded by ctx: cancellation or expiry abandons
// the call (the subscription may still take effect server-side; its initial
// refresh is then applied as unsolicited traffic).
func (c *Client) SubscribeCtx(ctx context.Context, key int) error {
	msg, err := c.call(ctx, &netproto.Subscribe{Key: int64(key)})
	if err != nil {
		return err
	}
	netproto.Release(msg)
	c.noteSubscribed(key)
	return nil
}

// noteSubscribed records keys in the desired-state set the redial loop
// replays after a reconnect. Only acknowledged subscriptions are recorded,
// so replay never asks a server for keys it might have rejected.
func (c *Client) noteSubscribed(keys ...int) {
	c.mu.Lock()
	for _, k := range keys {
		c.subs[k] = struct{}{}
	}
	c.mu.Unlock()
}

// SubscribeMulti registers interest in all keys with one request per
// maxBatch chunk (all chunks in flight together), installing the initial
// approximations.
func (c *Client) SubscribeMulti(keys []int) error {
	return c.SubscribeMultiCtx(context.Background(), keys)
}

// SubscribeMultiCtx is SubscribeMulti bounded by ctx.
func (c *Client) SubscribeMultiCtx(ctx context.Context, keys []int) error {
	if len(keys) == 0 {
		return nil
	}
	calls, err := c.startMulti(ctx, keys, func(chunk []int) netproto.Message {
		ks := make([]int64, len(chunk))
		for i, k := range chunk {
			ks[i] = int64(k)
		}
		return &netproto.SubscribeMulti{Keys: ks}
	})
	if err != nil {
		return err
	}
	var firstErr error
	for _, cc := range calls {
		if firstErr != nil {
			// Fail fast: abandon the remaining chunks instead of awaiting
			// each in turn (their slots are freed now; late responses are
			// applied as unsolicited traffic).
			c.abandon(cc.id)
			continue
		}
		msg, err := c.await(ctx, cc.id, cc.ch, cc.start)
		if err != nil {
			firstErr = err
			continue
		}
		rb, ok := msg.(*netproto.RefreshBatch)
		if !ok || len(rb.Items) != cc.n {
			firstErr = fmt.Errorf("client: malformed SubscribeMulti response")
			netproto.Release(msg)
			continue
		}
		netproto.Release(rb)
		c.noteSubscribed(keys[cc.off : cc.off+cc.n]...)
	}
	return firstErr
}

// Unsubscribe withdraws interest and drops the local entry.
func (c *Client) Unsubscribe(key int) error {
	return c.UnsubscribeCtx(context.Background(), key)
}

// UnsubscribeCtx is Unsubscribe bounded by ctx. It is the eviction protocol
// run by hand: the key is dropped, queued, and the mute queue sent at once in
// a standalone Mute frame, so the server stops pushing it (and keeps adapting
// its width, should the key be read again). A push that crosses the frame is
// ignored like any push for a key not held. An open Watch over the key keeps
// its pushes coming — the mute is withheld until the watch closes. The
// request is fire-and-forget; ctx bounds only the (rare) wait for send-queue
// space.
// During an outage, with reconnection enabled, removing the key from the
// replay set is the whole job — the server side of the subscription died
// with the stream — so the call succeeds without touching the network.
func (c *Client) UnsubscribeCtx(ctx context.Context, key int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.store.Drop(key)
	delete(c.subs, key)
	if c.down && c.policy.Enabled {
		c.mu.Unlock()
		return nil
	}
	if c.down {
		err := c.closeReasonLocked()
		c.mu.Unlock()
		return err
	}
	s := c.sess
	c.muteq[key] = struct{}{}
	m := &netproto.Mute{}
	m.Seen, m.Keys = c.takeMutesLocked(nil)
	c.mu.Unlock()
	if len(m.Keys) == 0 {
		return nil
	}
	select {
	case s.sendq <- m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.dead:
		if c.policy.Enabled {
			return nil
		}
		return c.closeReason()
	}
}

// Get returns the locally cached approximation. With the connection down
// the answer is the last-known interval, widened by Config.StaleWidthGrowth
// for the age of the outage; see GetApprox for the variant that reports the
// degradation explicitly.
func (c *Client) Get(key int) (interval.Interval, bool) {
	a, ok := c.approx(key)
	return a.Interval, ok
}

// GetApprox is Get with the degradation status made explicit: with the
// connection down, the answer is the last-known approximation flagged Stale,
// its width grown by Config.StaleWidthGrowth for the Age of the outage. While
// connected the answer is the live local entry with Stale false. The lookup
// is local and never blocks; a done context reads as not-found.
func (c *Client) GetApprox(ctx context.Context, key int) (Approx, bool) {
	if ctx.Err() != nil {
		return Approx{}, false
	}
	return c.approx(key)
}

// approx serves one local read under the stale-read policy. The interval
// widens symmetrically: without observations the source may have drifted
// either way, so the bound loosens but keeps its claim to contain the true
// value under the configured drift model.
func (c *Client) approx(key int) (Approx, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.approxLocked(key)
}

// approxLocked is approx for a caller that holds mu.
func (c *Client) approxLocked(key int) (Approx, bool) {
	iv, ok := c.store.Get(key)
	if !ok {
		return Approx{}, false
	}
	if c.downSince.IsZero() {
		return Approx{Interval: iv}, true
	}
	age := time.Since(c.downSince)
	if c.staleGrowth > 0 {
		half := c.staleGrowth * age.Seconds() / 2
		iv.Lo -= half
		iv.Hi += half
	}
	return Approx{Interval: iv, Stale: true, Age: age}, true
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
	m := netproto.GetRead()
	m.Key = int64(key)
	msg, err := c.call(ctx, m)
	if err != nil {
		return 0, err
	}
	r, ok := msg.(*netproto.Refresh)
	if !ok {
		netproto.Release(msg)
		return 0, fmt.Errorf("client: malformed Read response %T", msg)
	}
	v := r.Value
	netproto.Release(r)
	c.mu.Lock()
	c.qir++
	c.mu.Unlock()
	return v, nil
}

// multiCall tracks one in-flight chunk of a multi-key request.
type multiCall struct {
	id     uint64
	ch     chan callResult
	start  time.Time
	off, n int
}

// startMulti pipelines a multi-key request as maxBatch-sized chunks, issuing
// every chunk before awaiting any: the round-trip cost is one RTT however
// many chunks the key set spans. build turns one chunk of keys into the
// request message (whose ownership passes to the writer).
func (c *Client) startMulti(ctx context.Context, keys []int, build func(chunk []int) netproto.Message) ([]multiCall, error) {
	var calls []multiCall
	for off := 0; off < len(keys); off += maxBatch {
		end := off + maxBatch
		if end > len(keys) {
			end = len(keys)
		}
		id, ch, start, err := c.startCall(ctx, build(keys[off:end]))
		if err != nil {
			// Abandon the chunks already in flight: the caller gets the
			// error without awaiting them, so free their slots here.
			for _, cc := range calls {
				c.abandon(cc.id)
			}
			return nil, err
		}
		calls = append(calls, multiCall{id: id, ch: ch, start: start, off: off, n: end - off})
	}
	return calls, nil
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
	calls, err := c.startMulti(ctx, keys, func(chunk []int) netproto.Message {
		m := netproto.GetReadMulti()
		for _, k := range chunk {
			m.Keys = append(m.Keys, int64(k))
		}
		return m
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(keys))
	fetched := 0
	var firstErr error
	for _, cc := range calls {
		if firstErr != nil {
			// Fail fast: abandon the remaining chunks instead of awaiting
			// each in turn (their slots are freed now; late responses are
			// applied as unsolicited traffic).
			c.abandon(cc.id)
			continue
		}
		msg, err := c.await(ctx, cc.id, cc.ch, cc.start)
		if err != nil {
			firstErr = err
			continue
		}
		rb, ok := msg.(*netproto.RefreshBatch)
		if !ok || len(rb.Items) != cc.n {
			firstErr = fmt.Errorf("client: malformed ReadMulti response")
			netproto.Release(msg)
			continue
		}
		for j, it := range rb.Items {
			out[cc.off+j] = it.Value
		}
		netproto.Release(rb)
		fetched += cc.n
	}
	c.mu.Lock()
	c.qir += fetched
	c.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	return c.PingCtx(context.Background())
}

// PingCtx is Ping bounded by ctx.
func (c *Client) PingCtx(ctx context.Context) error {
	_, err := c.call(ctx, &netproto.Ping{})
	return err
}

// Query executes a bounded-aggregate query against the local cache,
// fetching exact values from the server as needed to meet q.Delta. All keys
// needing refinement within a fetch round are read with one ReadMulti (SUM
// and AVG always need exactly one round), so the round-trip count does not
// grow with the refresh-set size. It returns the bounding answer and any
// network error encountered while fetching; after the first fetch error no
// further fetches are issued.
func (c *Client) Query(q workload.Query) (query.Answer, error) {
	return c.QueryCtx(context.Background(), q)
}

// QueryCtx is Query bounded by ctx. Cancellation is honored between
// refinement rounds as well as inside each fetch: a cancelled MAX/MIN query
// stops mid-ramp instead of running its remaining rounds against a context
// its caller has abandoned.
func (c *Client) QueryCtx(ctx context.Context, q workload.Query) (query.Answer, error) {
	var fetchErr error
	// The planner looks every key up once, in q.Keys order, before it
	// fetches anything: read them all under one acquisition of mu instead
	// of contending with the read loop's installs once per key.
	type lookup struct {
		iv interval.Interval
		ok bool
	}
	cached := make([]lookup, len(q.Keys))
	c.mu.Lock()
	for i, key := range q.Keys {
		a, ok := c.approxLocked(key)
		cached[i] = lookup{a.Interval, ok}
	}
	c.mu.Unlock()
	next := 0
	get := func(key int) (interval.Interval, bool) {
		if next >= len(cached) || q.Keys[next] != key {
			return c.Get(key)
		}
		l := cached[next]
		next++
		return l.iv, l.ok
	}
	ans, err := query.ExecuteBatchRampCtx(ctx, q, get, func(keys []int) []float64 {
		if fetchErr != nil {
			// Short-circuit: a failed connection would otherwise be
			// retried once per remaining fetch round.
			return make([]float64, len(keys))
		}
		vals, ferr := c.ReadMultiCtx(ctx, keys)
		if ferr != nil {
			fetchErr = ferr
			return make([]float64, len(keys))
		}
		return vals
	}, c.ramp)
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
// older than the last one it was shown. Close detaches the stream (it does
// not unsubscribe the keys: the local cache keeps receiving their pushes);
// if the connection dies the stream ends and Err reports why. Watching a
// key the server does not host fails with an error matching ErrUnknownKey.
func (c *Client) WatchCtx(ctx context.Context, keys ...int) (*watch.Watch, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("client: watch of no keys")
	}
	ks := append([]int(nil), keys...) // detach from the caller's backing array
	var w *watch.Watch
	w = watch.New(func(*watch.Watch) { c.unwatch(w, ks) })
	// Register before subscribing so the initial refreshes — and any push
	// racing them — are observed from the first frame on.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		w.Close()
		return nil, c.closeReason()
	}
	c.watchers.Add(w, ks)
	c.mu.Unlock()
	if err := c.SubscribeMultiCtx(ctx, ks); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// unwatch removes w from the registry entries of its keys.
func (c *Client) unwatch(w *watch.Watch, keys []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watchers.Remove(w, keys)
}

// queryReg is the client-side desired state of one standing continuous
// query: enough to re-register it under the same QID after a reconnect,
// plus the watch its QueryUpdate stream feeds.
type queryReg struct {
	qid   uint64
	kind  workload.AggKind
	delta float64
	keys  []int
	w     *watch.Watch
}

// registerMsg builds the wire registration for the query.
func (q *queryReg) registerMsg() *netproto.RegisterQuery {
	m := &netproto.RegisterQuery{QID: q.qid, Kind: netproto.AggKind(q.kind), Delta: q.delta, Keys: make([]int64, len(q.keys))}
	for i, k := range q.keys {
		m.Keys[i] = int64(k)
	}
	return m
}

// WatchQuery is WatchQueryCtx with a background context.
func (c *Client) WatchQuery(kind workload.AggKind, delta float64, keys ...int) (*watch.Watch, error) {
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
// the registration round trip.
//
// Close withdraws the registration from the server. Across a reconnect the
// registration is replayed automatically.
func (c *Client) WatchQueryCtx(ctx context.Context, kind workload.AggKind, delta float64, keys ...int) (*watch.Watch, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("client: query watch of no keys")
	}
	if delta < 0 || math.IsNaN(delta) || math.IsInf(delta, 1) {
		return nil, fmt.Errorf("client: query delta %g outside [0, +Inf)", delta)
	}
	q := &queryReg{kind: kind, delta: delta, keys: append([]int(nil), keys...)}
	q.w = watch.New(func(*watch.Watch) { c.unwatchQuery(q) })
	// Publish the registration before the call so the ack's initial answer
	// — and any push racing it — reaches the watch from the first frame on.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		q.w.Close()
		return nil, c.closeReason()
	}
	c.nextQID++
	q.qid = c.nextQID
	c.queries[q.qid] = q
	c.mu.Unlock()
	msg, err := c.call(ctx, q.registerMsg())
	if err != nil {
		q.w.Close()
		return nil, err
	}
	if _, ok := msg.(*netproto.QueryUpdate); !ok {
		netproto.Release(msg)
		q.w.Close()
		return nil, fmt.Errorf("client: malformed RegisterQuery response %T", msg)
	}
	netproto.Release(msg)
	return q.w, nil
}

// unwatchQuery is the query watch's unregister hook: it removes the
// desired-state entry and withdraws the server-side registration
// (fire-and-forget, like a Mute). During an outage the registration
// died with the stream, so removing it from the replay set is the whole
// job.
func (c *Client) unwatchQuery(q *queryReg) {
	c.mu.Lock()
	if c.queries[q.qid] != q {
		// Already detached (teardown, or a replaced entry).
		c.mu.Unlock()
		return
	}
	delete(c.queries, q.qid)
	if c.closed || c.down {
		c.mu.Unlock()
		return
	}
	s := c.sess
	c.mu.Unlock()
	select {
	case s.sendq <- &netproto.UnregisterQuery{QID: q.qid}:
	case <-s.dead:
	}
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		ValueRefreshes: c.vir,
		QueryRefreshes: c.qir,
		FramesSent:     int(c.framesSent.Load()),
		FramesReceived: int(c.framesRecv.Load()),
		SmoothedRTT:    time.Duration(c.rttEWMA.Load()),
		Reconnects:     c.reconnects,
		Queries:        len(c.queries),
		Degraded:       !c.downSince.IsZero(),
		MutesSent:      c.mutesSent,
		PushesIgnored:  c.pushesIgnored,
		Cache:          c.store.Stats(),
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
	failed := c.watchers.Detach()
	failed = append(failed, c.detachQueriesLocked()...)
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	for _, w := range failed {
		w.Fail(ErrClosed)
	}
	err := s.conn.Close()
	<-s.dead
	<-s.writeDone
	c.redialWG.Wait()
	if already {
		return nil
	}
	return err
}
