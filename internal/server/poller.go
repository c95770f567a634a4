// The event-driven connection core (Config.ConnMode == ConnModePoller).
//
// Instead of two goroutines per connection, a fixed set of goroutines
// serves every connection. Connections are sharded across a small set of
// event loops, each owning its own epoll instance (internal/netpoll). A
// loop serves readiness inline: it performs the non-blocking reads,
// incremental frame decoding (netproto.StreamDecoder), the same dispatch
// the goroutine core's read loop runs, and — for the replies that dispatch
// produced — an inline flush through the shared pooled-buffer/
// single-syscall encode machinery (appendFrames) ending in a non-blocking
// write. Only when a socket's buffer fills does the remainder hand off to a
// shared pool of writers, which also flushes value-initiated pushes (they
// originate on Set's goroutine, not a loop) and timer-window flushes. Flush
// windows ride a hashed timer wheel rather than a runtime timer per
// connection. Keeping the request/response path on one goroutine is what
// makes its latency competitive with the goroutine core: no cross-goroutine
// wakeups sit between the readiness event and the reply syscall.
//
// The cost of an idle connection collapses to a registered one-shot
// descriptor plus a compact pollConn: no goroutine stacks, no buffered
// channel, and — because stream decoders are pooled and only borrowed while
// a frame actually spans reads — no decode state either.
//
// Concurrency invariants:
//   - One-shot registration gives each connection at most one in-flight
//     read dispatch; the loop owns the connection's decoder and request
//     scratch until it re-arms the descriptor.
//   - pc.scheduled (guarded by pc.wmu) gives each connection at most one
//     pending drain — a writer work-queue slot or the loop's inline drain;
//     whoever holds it owns pc.w, pc.spare, and pc.pend until it clears
//     the flag or (keeping it set) hands the drain on through the work
//     queue.
//   - Lock order: c.ovMu before pc.wmu (only flushOverflow nests them);
//     pushers take each alone. Writers take no shard locks and the work
//     queue push never blocks, so reply/push stay safe under shard locks.
//   - Loops never block: reads and inline writes are single non-blocking
//     syscall attempts, and a full socket defers to the writer pool.
//   - Teardown from any path funnels through Server.dropClient, which is
//     idempotent and marks pc.wclosed so late enqueues are released.
package server

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/netpoll"
	"apcache/internal/netproto"
)

const (
	// pollOutWatermark is the out-queue depth beyond which pushes divert
	// into the merge buffer — the same congestion point as the goroutine
	// core's channel watermark, so both cores share backpressure behavior.
	pollOutWatermark = 1024 - replyHeadroom
	// pollOutCap is the hard out-queue bound for replies; beyond it the
	// peer's TCP stream is wedged and the connection is severed, matching
	// the goroutine core's full-channel behavior.
	pollOutCap = 1024
	// pollReadBudget caps the bytes one readiness event may drain before
	// the descriptor is re-armed, so one firehose connection cannot
	// monopolize a decode worker. Level-triggered re-arm fires again
	// immediately while bytes remain.
	pollReadBudget = 256 << 10
	// pollWriteTimeout bounds one flush on a shared writer. A peer that
	// cannot accept a frame for this long is severed — a wedged peer must
	// not be able to park a pooled writer indefinitely.
	pollWriteTimeout = 10 * time.Second
)

// decPool lends stream decoders to connections mid-frame; a connection
// whose byte stream is between frames holds none.
var decPool = sync.Pool{New: func() any { return netproto.NewStreamDecoder() }}

// pollConn is a connection's poller-core state: the descriptor identity,
// the borrowed decode state, and the writer-side out queue. It replaces the
// goroutine core's two goroutines and buffered channel.
type pollConn struct {
	c     *clientConn
	fd    int
	token uint32
	io    *netpoll.ConnIO // reusable non-blocking read/write state
	lp    *netpoll.Poller // the event loop's poller this conn is sharded onto

	// dec is borrowed from decPool while a frame spans reads; nil when the
	// connection sits between frames (the idle steady state).
	dec *netproto.StreamDecoder

	// wmu guards the out queue and scheduling flags. outq is the delivery
	// queue (replies and pushes, in enqueue order); spare is the draining
	// writer's swap buffer; scheduled means the connection occupies a
	// writer work-queue slot, has a pending inline drain, or is being
	// drained; wclosed marks teardown.
	//
	// inRead marks the window in which a read worker owns this
	// connection's dispatch; replies enqueued inside it claim the
	// scheduled slot via localDrain instead of the writer work queue, and
	// the read worker flushes them itself before re-arming — the worker is
	// already hot, so the request/response path skips a goroutine wakeup.
	wmu        sync.Mutex
	outq       []netproto.Message
	spare      []netproto.Message
	scheduled  bool
	inRead     bool
	localDrain bool
	wclosed    bool

	// w is the flush state (frame buffer, push-run scratch) and pend the
	// tail of an inline flush the socket would not accept without
	// blocking; both are owned by whichever drainer holds scheduled.
	// timer is the connection's flush deadline on the shared wheel.
	w     connWriter
	pend  []byte
	timer netpoll.Timer
}

// pollCore is the server-wide event-driven machinery: the event loops'
// pollers, timer wheel, token registry, and the writer pool.
type pollCore struct {
	s     *Server
	loops []*netpoll.Poller
	wheel *netpoll.Wheel // nil when FlushInterval is 0 (no windows to arm)

	mu        sync.Mutex
	byToken   map[uint32]*clientConn
	nextToken uint32
	nextLoop  int

	wq     workq
	closed atomic.Bool

	loopWG   sync.WaitGroup
	writerWG sync.WaitGroup
}

// startPollCore builds and starts the event-driven core. The caller falls
// back to the goroutine core on error.
func (s *Server) startPollCore() (*pollCore, error) {
	loops := s.cfg.PollWorkers
	if loops <= 0 {
		loops = runtime.GOMAXPROCS(0)
	}
	writers := s.cfg.PollWriters
	if writers <= 0 {
		writers = runtime.GOMAXPROCS(0) / 2
		if writers < 1 {
			writers = 1
		}
	}
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
	if fi := s.cfg.FlushInterval; fi > 0 {
		// Tick at a quarter of the window for acceptable slack, clamped so
		// pathological configs neither spin the wheel nor fire windows
		// with multi-tick error.
		tick := fi / 4
		if tick < 100*time.Microsecond {
			tick = 100 * time.Microsecond
		}
		if tick > 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
		core.wheel = netpoll.NewWheel(tick, 64)
	}
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
	if core.wheel != nil {
		core.wheel.Stop()
	}
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
	tcp, ok := c.conn.(*net.TCPConn)
	if !ok {
		return fmt.Errorf("server: poller core needs *net.TCPConn, got %T", c.conn)
	}
	rc, err := tcp.SyscallConn()
	if err != nil {
		return err
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return err
	}
	pc := &pollConn{c: c, fd: fd, io: netpoll.NewConnIO(rc)}
	pc.timer.Fn = func() { core.schedule(c) }
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

// unregister tears down c's poller state: token mapping, epoll membership,
// flush timer, and any undelivered messages. Idempotent; called from
// dropClient with the descriptor already closed or closing.
func (core *pollCore) unregister(c *clientConn) {
	pc := c.pc
	core.mu.Lock()
	delete(core.byToken, pc.token)
	core.mu.Unlock()
	pc.lp.Remove(pc.fd)
	if core.wheel != nil {
		core.wheel.Cancel(&pc.timer)
	}
	pc.wmu.Lock()
	pc.wclosed = true
	msgs := pc.outq
	pc.outq = nil
	pc.wmu.Unlock()
	for _, m := range msgs {
		netproto.Release(m)
	}
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
	pc.wmu.Lock()
	pc.inRead = true
	pc.wmu.Unlock()
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
	pc.wmu.Lock()
	pc.inRead = false
	local := pc.localDrain
	pc.localDrain = false
	pc.wmu.Unlock()
	if local {
		// The loop claimed the scheduled slot when dispatch enqueued its
		// replies; draining before the re-arm keeps the connection
		// single-threaded through serveRead.
		core.drainInline(c)
	}
	if err := pc.lp.Rearm(pc.fd, pc.token); err != nil {
		s.dropClient(c)
	}
}

// schedule claims c's writer work-queue slot if it is free. Safe from any
// goroutine; never blocks (callers may hold shard locks or run on the
// wheel goroutine).
func (core *pollCore) schedule(c *clientConn) {
	pc := c.pc
	pc.wmu.Lock()
	if pc.wclosed || pc.scheduled {
		pc.wmu.Unlock()
		return
	}
	pc.scheduled = true
	pc.wmu.Unlock()
	core.wq.push(c)
}

// writeWorker drains scheduled connections until the core shuts down.
func (core *pollCore) writeWorker() {
	defer core.writerWG.Done()
	for {
		c, ok := core.wq.pop()
		if !ok {
			return
		}
		core.drain(c)
	}
}

// drainInline is the event loop's drain: same chunking as drain, but the
// socket write is a single non-blocking attempt. A write the socket will
// not accept hands the connection — scheduled flag still held — to the
// writer pool, which ships the pending bytes with a blocking write. The
// merge buffer is also left to the writer pool: flushing it takes blocking
// semantics, and a backlogged connection is past latency-sensitivity
// anyway.
func (core *pollCore) drainInline(c *clientConn) {
	pc := c.pc
	for {
		pc.wmu.Lock()
		if pc.wclosed {
			pc.scheduled = false
			pc.wmu.Unlock()
			return
		}
		if len(pc.outq) == 0 {
			pc.scheduled = false
			pc.wmu.Unlock()
			if c.overflowPending() {
				core.schedule(c)
			}
			return
		}
		max := int(c.batchLimit.Load())
		n := len(pc.outq)
		if n > max {
			n = max
		}
		msgs := append(pc.spare[:0], pc.outq[:n]...)
		rem := copy(pc.outq, pc.outq[n:])
		for i := rem; i < len(pc.outq); i++ {
			pc.outq[i] = nil
		}
		pc.outq = pc.outq[:rem]
		pc.wmu.Unlock()
		res := core.flushInline(c, msgs)
		pc.spare = msgs[:0]
		switch res {
		case flushBlocked:
			// The remainder sits in pc.pend and scheduled stays claimed:
			// hand the drain on to a writer that may block on the socket.
			core.wq.push(c)
			return
		case flushDead:
			return
		}
	}
}

type flushResult int

const (
	flushDone flushResult = iota
	flushBlocked
	flushDead
)

// flushInline encodes one batch and offers it to the socket without
// blocking. On a short write the unsent tail is copied into pc.pend (the
// encode buffer is reused by the next flush) and flushBlocked tells the
// caller to hand the connection to the writer pool.
func (core *pollCore) flushInline(c *clientConn, msgs []netproto.Message) flushResult {
	s := core.s
	pc := c.pc
	if len(msgs) == 0 {
		return flushDone
	}
	if err := s.appendFrames(c, &pc.w, msgs); err != nil {
		s.logf("client %d: encode: %v", c.id, err)
		s.dropClient(c)
		return flushDead
	}
	n, err := pc.io.Write(pc.w.buf)
	if err != nil {
		s.dropClient(c)
		return flushDead
	}
	if n < len(pc.w.buf) {
		pc.pend = append(pc.pend[:0], pc.w.buf[n:]...)
		return flushBlocked
	}
	if cap(pc.w.buf) > 1<<20 {
		pc.w.buf = nil
	}
	return flushDone
}

// drain flushes c's out queue (in chunks of the negotiated batch limit),
// then the push merge buffer, and releases the scheduled slot only once
// both are empty — with a re-check after the release so a racing park can
// never strand entries. Writers run it with blocking (deadline-bounded)
// writes; any bytes an inline flush left behind ship first, preserving
// stream order.
func (core *pollCore) drain(c *clientConn) {
	pc := c.pc
	if len(pc.pend) > 0 { // owned via scheduled; no lock needed
		c.conn.SetWriteDeadline(time.Now().Add(pollWriteTimeout))
		_, err := c.conn.Write(pc.pend)
		pc.pend = pc.pend[:0]
		if cap(pc.pend) > 1<<20 {
			pc.pend = nil
		}
		if err != nil {
			core.s.dropClient(c)
			return
		}
	}
	for {
		pc.wmu.Lock()
		if pc.wclosed {
			pc.scheduled = false
			pc.wmu.Unlock()
			return
		}
		if len(pc.outq) == 0 {
			pc.wmu.Unlock()
			if core.flushOverflow(c) {
				continue
			}
			pc.wmu.Lock()
			if len(pc.outq) > 0 {
				pc.wmu.Unlock()
				continue
			}
			pc.scheduled = false
			pc.wmu.Unlock()
			// Lost-wakeup guard: a push parked after flushOverflow's look
			// saw scheduled still true and skipped its own schedule call.
			if c.overflowPending() {
				core.schedule(c)
			}
			return
		}
		max := int(c.batchLimit.Load())
		n := len(pc.outq)
		if n > max {
			n = max
		}
		msgs := append(pc.spare[:0], pc.outq[:n]...)
		rem := copy(pc.outq, pc.outq[n:])
		for i := rem; i < len(pc.outq); i++ {
			pc.outq[i] = nil
		}
		pc.outq = pc.outq[:rem]
		pc.wmu.Unlock()
		ok := core.flush(c, msgs)
		pc.spare = msgs[:0]
		if !ok {
			return
		}
	}
}

// flush encodes one batch through the shared appendFrames machinery and
// hands it to the kernel in a single deadline-bounded write. Returns false
// after tearing the connection down.
func (core *pollCore) flush(c *clientConn, msgs []netproto.Message) bool {
	s := core.s
	pc := c.pc
	if len(msgs) == 0 {
		return true
	}
	if err := s.appendFrames(c, &pc.w, msgs); err != nil {
		s.logf("client %d: encode: %v", c.id, err)
		s.dropClient(c)
		return false
	}
	c.conn.SetWriteDeadline(time.Now().Add(pollWriteTimeout))
	if _, err := c.conn.Write(pc.w.buf); err != nil {
		s.dropClient(c)
		return false
	}
	if cap(pc.w.buf) > 1<<20 {
		// Don't pin one exceptional burst's high-water mark for the
		// connection's lifetime.
		pc.w.buf = nil
	}
	return true
}

// flushOverflow moves parked pushes into a flush, mirroring the goroutine
// core's drainOverflow ordering rule: parked entries may only ship while
// the out queue is empty, verified under ovMu — the same mutex the
// merge-or-park decision runs under — so nothing newer-queued can precede
// them. Returns true when it flushed something (the drain loop comes back
// for the rest).
func (core *pollCore) flushOverflow(c *clientConn) bool {
	pc := c.pc
	max := int(c.batchLimit.Load())
	c.ovMu.Lock()
	if len(c.overflow) == 0 {
		c.ovMu.Unlock()
		return false
	}
	pc.wmu.Lock()
	empty := len(pc.outq) == 0 && !pc.wclosed
	pc.wmu.Unlock()
	if !empty {
		c.ovMu.Unlock()
		return false // the drain loop services the queue first, then retries
	}
	batch := pc.spare[:0]
	for k, m := range c.overflow {
		if len(batch) >= max {
			break
		}
		delete(c.overflow, k)
		batch = append(batch, m)
	}
	c.ovMu.Unlock()
	if len(batch) == 0 {
		return false
	}
	ok := core.flush(c, batch)
	pc.spare = batch[:0]
	return ok
}

// pendingDelivery reports whether the connection still holds undelivered
// traffic: queued messages, or a claimed drain in progress (scheduled also
// covers the writer-owned pc.pend tail — it is only ever non-empty while
// the slot is held, so the flag is the one signal needed). Shutdown's drain
// phase polls it under wmu.
func (pc *pollConn) pendingDelivery() bool {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if pc.wclosed {
		return false
	}
	return len(pc.outq) > 0 || pc.scheduled
}

// pushPoll is the poller core's half of push: same merge-instead-of-drop
// contract as the goroutine core, with the out queue watermark standing in
// for channel congestion and the timer wheel standing in for the writer's
// flush-window wait.
func (s *Server) pushPoll(c *clientConn, m *netproto.Refresh) {
	core := s.poll
	pc := c.pc
	c.ovMu.Lock()
	if p, ok := c.overflow[m.Key]; ok {
		p.Lo = math.Min(p.Lo, m.Lo)
		p.Hi = math.Max(p.Hi, m.Hi)
		p.Value = m.Value
		p.OriginalWidth = m.OriginalWidth
		c.ovMu.Unlock()
		netproto.Release(m)
		s.pushMerges.Add(1)
		core.schedule(c)
		return
	}
	c.ovMu.Unlock()
	pc.wmu.Lock()
	if pc.wclosed {
		pc.wmu.Unlock()
		netproto.Release(m)
		return
	}
	if len(pc.outq) < pollOutWatermark {
		pc.outq = append(pc.outq, m)
		kick := !pc.scheduled
		pc.wmu.Unlock()
		if kick {
			// The first push opens the connection's adaptive flush window
			// on the shared wheel; followers ride it (Schedule keeps the
			// earlier deadline). A zero window schedules immediately.
			if win := c.flushWindow(s.cfg.FlushInterval); win > 0 && core.wheel != nil {
				core.wheel.Schedule(&pc.timer, win)
			} else {
				core.schedule(c)
			}
		}
		return
	}
	pc.wmu.Unlock()
	c.ovMu.Lock()
	if c.overflow == nil {
		c.overflow = make(map[int64]*netproto.Refresh)
	}
	c.overflow[m.Key] = m
	c.ovMu.Unlock()
	s.pushOverflows.Add(1)
	core.schedule(c)
}

// replyPoll is the poller core's half of reply: enqueue and schedule
// immediately (a response always ends any open flush window). The queue
// bound mirrors the goroutine core's full-channel sever; teardown is
// deferred to a fresh goroutine because callers hold shard locks that
// dropClient's subscription sweep needs.
func (s *Server) replyPoll(c *clientConn, m netproto.Message) {
	core := s.poll
	pc := c.pc
	pc.wmu.Lock()
	if pc.wclosed {
		pc.wmu.Unlock()
		netproto.Release(m)
		return
	}
	if len(pc.outq) >= pollOutCap {
		pc.wmu.Unlock()
		netproto.Release(m)
		s.logf("client %d: reply queue overflow, dropping connection", c.id)
		go s.dropClient(c)
		return
	}
	pc.outq = append(pc.outq, m)
	if pc.inRead && !pc.scheduled {
		// Replying from the dispatch the read worker is running: claim the
		// slot for its end-of-read inline drain instead of waking a writer.
		pc.scheduled = true
		pc.localDrain = true
		pc.wmu.Unlock()
		return
	}
	pc.wmu.Unlock()
	core.schedule(c)
}

// workq is the writer pool's work queue: an unbounded mutex-guarded FIFO
// with a token channel for sleeping consumers. push never blocks — that is
// the property reply/push need under shard locks — and the scheduled flag
// bounds occupancy to one slot per connection.
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
