// The event-driven I/O driver (Config.ConnMode == ConnModePoller).
//
// Instead of a read goroutine per connection, a fixed set of event loops
// serves every connection's reads. Connections are sharded across the
// loops, each owning its own epoll instance (internal/netpoll). A loop
// serves readiness inline: it performs the non-blocking reads, incremental
// frame decoding (netproto.StreamDecoder), the same dispatch the goroutine
// driver's read loop runs, and — for the drain slot a wake left to it
// (Server.wake) — the pipeline's drain with a single non-blocking write, as
// the goroutine driver's reader drains with a blocking one. Only when a
// socket's buffer fills does the remainder hand off to a drainer goroutine
// of the connection's own (Server.goDrain), as does whatever was enqueued
// while no loop was reading the connection (pushes originate on Set's
// goroutine) and flush-window expiries.
//
// The cost of an idle connection collapses to a registered one-shot
// descriptor plus a compact pollConn: no goroutine stack and — because
// stream decoders are pooled and only borrowed while a frame actually spans
// reads — no decode state either.
//
// What this driver adds to the pipeline's own invariants (see outQueue):
//   - One-shot registration gives each connection at most one in-flight
//     read dispatch; the loop owns the connection's decoder and request
//     scratch until it re-arms the descriptor.
//   - Loops never block: reads and inline writes are single non-blocking
//     syscall attempts, and a full socket defers to a drainer goroutine,
//     the drain slot travelling with the unsent tail.
package server

import (
	"runtime"
	"sync"

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

// pollConn is a connection's poller-driver state: the descriptor identity
// and the borrowed decode state. It replaces the goroutine driver's read
// goroutine. The descriptor's readiness token is the connection's ID.
type pollConn struct {
	fd int
	io *netpoll.ConnIO // reusable non-blocking read/write state
	lp *netpoll.Poller // the event loop's poller this conn is sharded onto

	// dec is borrowed from decPool while a frame spans reads; nil when the
	// connection sits between frames (the idle steady state).
	dec *netproto.StreamDecoder
}

// pollCore is the server-wide event-driven machinery: the event loops'
// pollers.
type pollCore struct {
	s     *Server
	loops []*netpoll.Poller

	inline writeFunc // writeInline, bound once so serving a read allocates nothing

	loopWG sync.WaitGroup
}

// startPollCore builds and starts the event-driven core: one event loop per
// GOMAXPROCS and no other goroutine. The caller falls back to the goroutine
// driver on error.
func (s *Server) startPollCore() (*pollCore, error) {
	loops := runtime.GOMAXPROCS(0)
	core := &pollCore{s: s}
	for i := 0; i < loops; i++ {
		p, err := netpoll.New()
		if err != nil {
			for _, prev := range core.loops {
				prev.Close()
			}
			return nil, err
		}
		core.loops = append(core.loops, p)
	}
	core.inline = core.writeInline
	for _, p := range core.loops {
		core.loopWG.Add(1)
		go core.eventLoop(p)
	}
	return core, nil
}

// shutdown stops the event loops by closing their pollers: each loop's
// parked Wait returns ErrClosed, and its epoll descriptor is released once
// that wait has returned. The caller set s.closed and dropped every
// connection first, so no attach can follow and nothing can schedule new
// work; the drainers the loops started join the server's serveWG, which the
// caller waits for next.
func (core *pollCore) shutdown() {
	for _, p := range core.loops {
		p.Close()
	}
	core.loopWG.Wait()
}

// attach creates c's poller state, sharding it onto a loop by its ID. It
// runs before c enters the connection registry, so c.pc is immutable by the
// time any other goroutine can see the connection; the descriptor is not
// armed yet.
func (core *pollCore) attach(c *clientConn) error {
	rc, err := c.conn.SyscallConn()
	if err != nil {
		return err
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return err
	}
	c.pc = &pollConn{fd: fd, io: netpoll.NewConnIO(rc), lp: core.loops[c.id%len(core.loops)]}
	return nil
}

// arm registers c's descriptor with its event loop's poller under c's ID;
// from here on readiness events flow. Called after c entered the connection
// registry.
func (core *pollCore) arm(c *clientConn) error {
	return c.pc.lp.Add(c.pc.fd, uint64(c.id))
}

// eventLoop serves one poller's readiness events inline. A token is a
// connection ID, resolved through the registry under connMu's read side;
// IDs are never reused, so a token that no longer resolves belongs to a
// connection torn down after the kernel queued the event. Everything
// the loop does per event — read, decode, dispatch, inline reply flush — is
// non-blocking at the socket layer, so one wedged peer cannot stall its
// loop-mates.
func (core *pollCore) eventLoop(p *netpoll.Poller) {
	defer core.loopWG.Done()
	tokens := make([]uint64, 128)
	buf := make([]byte, 64<<10)
	for {
		n, err := p.Wait(tokens)
		if err != nil {
			return // poller closed (or broken beyond use)
		}
		for _, token := range tokens[:n] {
			core.s.connMu.RLock()
			c := core.s.conns[int(token)]
			core.s.connMu.RUnlock()
			if c == nil {
				continue
			}
			// A hangup routes through the read path: RDHUP may arrive
			// with undrained bytes, and serveRead discovers the EOF
			// after consuming them.
			core.serveRead(c, buf)
		}
	}
}

// serveRead reads up to pollReadBudget bytes from c, feeding them through
// the connection's stream decoder into the shared dispatch, and drains a slot
// a wake left it before the re-arm, as readLoop does before its next read.
// One-shot registration guarantees exclusive ownership of the connection's
// decoder and request scratch until then.
func (core *pollCore) serveRead(c *clientConn, buf []byte) {
	s := core.s
	pc := c.pc
	c.rd.Store(rdReading)
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
	if c.rd.Swap(rdIdle) == rdDrain {
		// Draining before the re-arm keeps the connection single-threaded
		// through serveRead.
		s.drain(c, core.inline)
	}
	if err := pc.lp.Rearm(pc.fd, uint64(c.id)); err != nil {
		s.dropClient(c)
	}
}

// writeInline is the event loop's write func: one non-blocking attempt. What
// the socket will not take is copied to c.w.pend (the encode buffer is
// reused by the next flush) and goes to a drainer goroutine with the drain
// slot.
func (core *pollCore) writeInline(c *clientConn, buf []byte) (bool, error) {
	n, err := c.pc.io.Write(buf)
	if err != nil || n == len(buf) {
		return true, err
	}
	c.w.pend = append(c.w.pend[:0], buf[n:]...)
	c.goDrain()
	return false, nil
}
