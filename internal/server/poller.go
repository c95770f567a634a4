// The event-driven I/O driver (Config.ConnMode == ConnModePoller).
//
// Instead of two goroutines per connection, a fixed set of goroutines
// serves every connection. Connections are sharded across a small set of
// event loops, each owning its own epoll instance (internal/netpoll). A
// loop serves readiness inline: it performs the non-blocking reads,
// incremental frame decoding (netproto.StreamDecoder), the same dispatch
// the goroutine driver's read loop runs, and — for the replies that dispatch
// produced — the pipeline's drain with a single non-blocking write. Only
// when a socket's buffer fills does the remainder hand off to a shared pool
// of writers, which also drains whatever was enqueued off the loop (pushes
// originate on Set's goroutine) and flush-window expiries. Keeping the
// request/response path on one goroutine is what makes its latency
// competitive with the goroutine driver: no cross-goroutine wakeups sit
// between the readiness event and the reply syscall.
//
// The cost of an idle connection collapses to a registered one-shot
// descriptor plus a compact pollConn: no goroutine stacks and — because
// stream decoders are pooled and only borrowed while a frame actually spans
// reads — no decode state either.
//
// What this driver adds to the pipeline's own invariants (see outQueue):
//   - One-shot registration gives each connection at most one in-flight
//     read dispatch; the loop owns the connection's decoder and request
//     scratch until it re-arms the descriptor.
//   - Loops never block: reads and inline writes are single non-blocking
//     syscall attempts, and a full socket defers to the writer pool, the
//     drain slot travelling with the unsent tail.
package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"apcache/internal/netpoll"
	"apcache/internal/netproto"
)

// pollReadBudget caps the bytes one readiness event may drain before the
// descriptor is re-armed, so one firehose connection cannot monopolize an
// event loop. Level-triggered re-arm fires again immediately while bytes
// remain.
const pollReadBudget = 256 << 10

// decPool lends stream decoders to connections mid-frame; a connection
// whose byte stream is between frames holds none.
var decPool = sync.Pool{New: func() any { return netproto.NewStreamDecoder() }}

// Values of pollConn.rd.
const (
	rdIdle    uint32 = iota // no loop is serving the connection
	rdReading               // a loop is inside serveRead
	rdDrain                 // ... and owes the connection a drain before it re-arms
)

// pollConn is a connection's poller-driver state: the descriptor identity
// and the borrowed decode state. It replaces the goroutine driver's two
// goroutines.
type pollConn struct {
	fd    int
	token uint32
	io    *netpoll.ConnIO // reusable non-blocking read/write state
	lp    *netpoll.Poller // the event loop's poller this conn is sharded onto

	// dec is borrowed from decPool while a frame spans reads; nil when the
	// connection sits between frames (the idle steady state).
	dec *netproto.StreamDecoder

	// rd lets a wake that lands while a loop is serving the connection's
	// reads leave the drain to that loop — it is already hot, so the
	// request/response path skips a goroutine wakeup — instead of the
	// writer pool.
	rd atomic.Uint32
}

// pollCore is the server-wide event-driven machinery: the event loops'
// pollers, token registry, and the writer pool.
type pollCore struct {
	s     *Server
	loops []*netpoll.Poller

	mu        sync.Mutex
	byToken   map[uint32]*clientConn
	nextToken uint32
	nextLoop  int

	wq     workq
	inline writeFunc // writeInline, bound once so serving a read allocates nothing
	closed atomic.Bool

	loopWG   sync.WaitGroup
	writerWG sync.WaitGroup
}

// startPollCore builds and starts the event-driven core: one event loop per
// GOMAXPROCS, half as many shared writers. The caller falls back to the
// goroutine driver on error.
func (s *Server) startPollCore() (*pollCore, error) {
	loops := runtime.GOMAXPROCS(0)
	writers := max(loops/2, 1)
	core := &pollCore{
		s:       s,
		byToken: make(map[uint32]*clientConn),
	}
	for i := 0; i < loops; i++ {
		p, err := netpoll.New()
		if err != nil {
			for _, prev := range core.loops {
				prev.Close()
				prev.Wait(nil) // observe closed and release the descriptors
			}
			return nil, err
		}
		core.loops = append(core.loops, p)
	}
	core.wq.init(writers)
	core.inline = core.writeInline
	for _, p := range core.loops {
		core.loopWG.Add(1)
		go core.eventLoop(p)
	}
	for i := 0; i < writers; i++ {
		core.writerWG.Add(1)
		go core.writeWorker()
	}
	return core, nil
}

// shutdown stops the core's goroutines and releases the pollers. The caller
// has already dropped every connection, so nothing can schedule new work.
func (core *pollCore) shutdown() {
	core.closed.Store(true)
	for _, p := range core.loops {
		p.Close() // each loop's Wait returns ErrClosed and releases its poller
	}
	core.loopWG.Wait()
	core.wq.close()
	core.writerWG.Wait()
}

// attach creates c's poller state and registers it in the token table. It
// runs before c enters the connection registry (under connMu), so c.pc is
// immutable by the time any other goroutine can see the connection; the
// descriptor is not armed yet.
func (core *pollCore) attach(c *clientConn) error {
	if core.closed.Load() {
		return fmt.Errorf("server: poller core is shut down")
	}
	rc, err := c.conn.SyscallConn()
	if err != nil {
		return err
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return err
	}
	pc := &pollConn{fd: fd, io: netpoll.NewConnIO(rc)}
	c.wake = func() { core.wake(c) }
	core.mu.Lock()
	core.nextToken++
	if core.nextToken == ^uint32(0) {
		core.nextToken = 1 // the top token is the poller's reserved wake token
	}
	pc.token = core.nextToken
	pc.lp = core.loops[core.nextLoop]
	core.nextLoop = (core.nextLoop + 1) % len(core.loops)
	c.pc = pc
	core.byToken[pc.token] = c
	core.mu.Unlock()
	return nil
}

// arm registers c's descriptor with its event loop's poller; from here on
// readiness events flow. Called after c entered the connection registry.
func (core *pollCore) arm(c *clientConn) error {
	return c.pc.lp.Add(c.pc.fd, c.pc.token)
}

// unregister removes c's token mapping and epoll membership. Idempotent;
// called from dropClient before the descriptor is closed.
func (core *pollCore) unregister(c *clientConn) {
	core.mu.Lock()
	delete(core.byToken, c.pc.token)
	core.mu.Unlock()
	c.pc.lp.Remove(c.pc.fd)
}

// eventLoop serves one poller's readiness events inline. Tokens are
// resolved under the registry lock; a token that no longer resolves belongs
// to a connection torn down after the kernel queued the event. Everything
// the loop does per event — read, decode, dispatch, inline reply flush — is
// non-blocking at the socket layer, so one wedged peer cannot stall its
// loop-mates.
func (core *pollCore) eventLoop(p *netpoll.Poller) {
	defer core.loopWG.Done()
	evs := make([]netpoll.Event, 128)
	buf := make([]byte, 64<<10)
	for {
		n, err := p.Wait(evs)
		if err != nil {
			return // poller closed (or broken beyond use)
		}
		for i := 0; i < n; i++ {
			core.mu.Lock()
			c := core.byToken[evs[i].Token]
			core.mu.Unlock()
			if c == nil {
				continue
			}
			// A hangup still routes through the read path: RDHUP may
			// arrive with undrained bytes, and serveRead discovers the
			// EOF after consuming them.
			core.serveRead(c, buf)
		}
	}
}

// serveRead drains up to pollReadBudget bytes from c, feeding them through
// the connection's stream decoder into the shared dispatch, then flushes
// the replies dispatch produced without leaving the calling goroutine.
// One-shot registration guarantees exclusive ownership of the connection's
// decoder and request scratch until the re-arm.
func (core *pollCore) serveRead(c *clientConn, buf []byte) {
	s := core.s
	pc := c.pc
	pc.rd.Store(rdReading)
	budget := pollReadBudget
	for {
		n, err := pc.io.Read(buf)
		if err == netpoll.ErrAgain {
			break
		}
		if err != nil || n == 0 {
			pc.dec = nil // any partial frame dies with the connection
			s.dropClient(c)
			return
		}
		if pc.dec == nil {
			pc.dec = decPool.Get().(*netproto.StreamDecoder)
		}
		ferr := pc.dec.Feed(buf[:n], func(m netproto.Message) error {
			return s.dispatch(c, m)
		})
		if ferr != nil {
			s.logf("client %d: read: %v", c.id, ferr)
			pc.dec = nil
			s.dropClient(c)
			return
		}
		budget -= n
		if budget <= 0 {
			break
		}
	}
	if pc.dec != nil && pc.dec.Pending() == 0 {
		// Between frames: return the decode state so an idle connection
		// holds none of it.
		decPool.Put(pc.dec)
		pc.dec = nil
	}
	if pc.rd.Swap(rdIdle) == rdDrain {
		// Draining before the re-arm keeps the connection single-threaded
		// through serveRead.
		s.drain(c, core.inline)
	}
	if err := pc.lp.Rearm(pc.fd, pc.token); err != nil {
		s.dropClient(c)
	}
}

// wake is the poller's wake func: the drain goes to the loop currently
// serving c's reads if there is one, else to the writer pool. Safe from any
// goroutine; never blocks (callers may hold shard locks or run on the wheel
// goroutine). The compare-and-swap either lands before the loop's closing
// Swap, which then sees rdDrain, or fails against rdIdle — never in between.
func (core *pollCore) wake(c *clientConn) {
	if !c.pc.rd.CompareAndSwap(rdReading, rdDrain) {
		core.wq.push(c)
	}
}

// writeWorker drains woken connections, with writes that may block, until
// the core shuts down.
func (core *pollCore) writeWorker() {
	defer core.writerWG.Done()
	for {
		c, ok := core.wq.pop()
		if !ok {
			return
		}
		core.s.drain(c, writeBlocking)
	}
}

// writeInline is the event loop's write func: one non-blocking attempt. What
// the socket will not take is copied to c.w.pend (the encode buffer is
// reused by the next flush) and goes to the writer pool with the drain slot.
func (core *pollCore) writeInline(c *clientConn, buf []byte) (bool, error) {
	n, err := c.pc.io.Write(buf)
	if err != nil || n == len(buf) {
		return true, err
	}
	c.w.pend = append(c.w.pend[:0], buf[n:]...)
	core.wq.push(c)
	return false, nil
}

// workq is the writer pool's work queue: an unbounded mutex-guarded FIFO
// with a token channel for sleeping consumers. push never blocks — that is
// the property reply/push need under shard locks — and the drain slot
// bounds occupancy to one entry per connection.
type workq struct {
	mu     sync.Mutex
	q      []*clientConn
	head   int
	wake   chan struct{}
	closed bool
}

func (w *workq) init(consumers int) {
	w.wake = make(chan struct{}, consumers)
}

func (w *workq) push(c *clientConn) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.q = append(w.q, c)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
		// Token channel saturated: every consumer already has a pending
		// wake, and consumers always re-check the queue before sleeping.
	}
}

func (w *workq) pop() (*clientConn, bool) {
	for {
		w.mu.Lock()
		if w.head < len(w.q) {
			c := w.q[w.head]
			w.q[w.head] = nil
			w.head++
			if w.head == len(w.q) {
				w.q = w.q[:0]
				w.head = 0
			}
			w.mu.Unlock()
			return c, true
		}
		closed := w.closed
		w.mu.Unlock()
		if closed {
			return nil, false
		}
		<-w.wake
	}
}

func (w *workq) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	for i := 0; i < cap(w.wake); i++ {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}
