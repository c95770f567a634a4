// The connection pipeline: one delivery state machine per connection, driven
// by either I/O driver. A driver owns only when to read (a blocking read
// goroutine, or an epoll loop feeding a StreamDecoder) and when a flush may
// block (a per-connection writer goroutine, or the shared writer pool plus
// the epoll loop's one non-blocking attempt); it contributes a wake func and
// a write func. Everything between dispatch and the socket — queue, merge
// buffer, flush window, drain, sever — is the code in this file.
package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/netproto"
)

// replyHeadroom is the slice of the out queue reserved for request
// responses: pushes stop queuing before the hard bound so a burst of
// value-initiated traffic cannot starve replies.
const replyHeadroom = 128

// Backpressure bounds. They are variables only so tests can force congestion
// and flush timeouts without jamming megabytes of socket buffer; nothing
// outside a test assigns them.
var (
	// replyBound is the hard queue bound: a peer whose queue holds this
	// many undelivered messages when another reply arrives is severed.
	replyBound = 1024
	// pushWatermark is the depth at which pushes stop queuing and park in
	// the merge buffer instead.
	pushWatermark = replyBound - replyHeadroom
	// flushDeadline bounds every write that may block. A peer that cannot
	// accept a batch for this long is severed, so a wedged peer can park
	// neither its own writer goroutine nor a pooled one indefinitely.
	flushDeadline = 10 * time.Second
)

// pushStats counts a server's merge-buffer traffic across all connections:
// pushes parked on congestion, and later pushes folded into a parked entry.
type pushStats struct{ overflows, merges atomic.Int64 }

// parkKey names a merge-buffer entry: a Refresh parks per key, a pushed
// QueryUpdate per standing query.
type parkKey struct {
	query bool
	id    int64
}

// wakeup is what an enqueue asks of its caller.
type wakeup uint8

const (
	wakeNone wakeup = iota // a drain is already claimed, or nothing was queued
	wakeNow                // the drain slot was just claimed: wake the drainer
	wakeHold               // queued inside the flush window: arm its expiry
)

// outQueue is one connection's delivery state machine, and the single
// statement of the delivery contract:
//
//   - Per-key generation order. Messages leave in enqueue order, and a key's
//     refreshes are enqueued under its shard lock, so a client installing
//     them in arrival order preserves validity.
//   - Merge, never drop. A push — a value-initiated Refresh, or a QueryUpdate
//     with ID 0 — that finds the queue at pushWatermark parks in the merge
//     buffer, one entry per key or query. While an entry is parked every
//     newer push for it folds in: a Refresh by interval union (the union
//     contains the newest interval, so it is valid for the newest value)
//     with latest-wins value and width, a QueryUpdate by replacement (it is
//     a complete answer). Parked entries leave only in a batch that emptied
//     the queue, so nothing older can still be queued behind them.
//   - Replies are never merged, held or reordered. One that finds
//     replyBound messages queued means the peer's stream is wedged: reply
//     reports it and the caller severs the connection, as drain does when a
//     write outlasts flushDeadline.
//   - One drain slot. scheduled is set when a wake goes out and cleared by
//     the take that finds queue and merge buffer both empty — the same
//     critical section every enqueue decides in, so no enqueue can land
//     between "nothing left" and "slot released" and be stranded.
//   - A push may wait, unclaimed, for its flush window to expire; a reply,
//     a parked entry or a full batch claims the slot at once, ending any
//     open window. pending is therefore exact: traffic is undelivered
//     precisely while the queue is non-empty or the slot is held, which is
//     what Shutdown waits out before dropping connections.
//
// The queue touches no socket and starts no goroutine; enqueues never block,
// so callers may hold shard locks.
type outQueue struct {
	mu        sync.Mutex
	q         []netproto.Message
	parked    map[parkKey]netproto.Message
	scheduled bool
	closed    bool
	stats     *pushStats
}

// push enqueues a mergeable message, whose ownership passes to the queue.
// hold says the caller has a flush window to open; max is the batch limit
// (maxBatch outside tests), at which a held run flushes on size.
func (q *outQueue) push(m netproto.Message, hold bool, max int) wakeup {
	var k parkKey
	switch v := m.(type) {
	case *netproto.Refresh:
		k = parkKey{id: v.Key}
	case *netproto.QueryUpdate:
		k = parkKey{query: true, id: int64(v.QID)}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		netproto.Release(m)
		return wakeNone
	}
	if p, ok := q.parked[k]; ok {
		switch p := p.(type) {
		case *netproto.Refresh:
			r := m.(*netproto.Refresh)
			p.Lo = math.Min(p.Lo, r.Lo)
			p.Hi = math.Max(p.Hi, r.Hi)
			p.Value = r.Value
			p.OriginalWidth = r.OriginalWidth
		case *netproto.QueryUpdate:
			*p = *m.(*netproto.QueryUpdate)
		}
		netproto.Release(m)
		q.stats.merges.Add(1)
		return wakeNone // a parked entry always has the slot claimed
	}
	if len(q.q) < pushWatermark {
		q.q = append(q.q, m)
		if !q.scheduled && hold && len(q.q) < max {
			return wakeHold
		}
	} else {
		if q.parked == nil {
			q.parked = make(map[parkKey]netproto.Message)
		}
		q.parked[k] = m
		q.stats.overflows.Add(1)
	}
	return q.claim()
}

// reply enqueues the response to a request. ok is false when the hard bound
// refused it: the caller must sever the connection.
func (q *outQueue) reply(m netproto.Message) (w wakeup, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		netproto.Release(m)
		return wakeNone, true
	}
	if len(q.q) >= replyBound {
		netproto.Release(m)
		return wakeNone, false
	}
	if ack, isAck := m.(*netproto.QueryUpdate); isAck {
		// A registration ack carries the query's full current answer; a
		// parked update under the same QID belongs to the registration it
		// replaces and must not follow the ack onto the wire.
		k := parkKey{query: true, id: int64(ack.QID)}
		if p, stale := q.parked[k]; stale {
			delete(q.parked, k)
			netproto.Release(p)
		}
	}
	q.q = append(q.q, m)
	return q.claim(), true
}

// schedule claims the drain slot for traffic still waiting without one —
// pushes inside a flush window — when the window expires or Shutdown ends it.
func (q *outQueue) schedule() wakeup {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.q) == 0 {
		return wakeNone
	}
	return q.claim()
}

// claim takes the drain slot if it is free; the caller holds mu.
func (q *outQueue) claim() wakeup {
	if q.scheduled {
		return wakeNone
	}
	q.scheduled = true
	return wakeNow
}

// take refills *batch for the drain-slot holder, at most max messages:
// queued ones first, then — only if that emptied the queue — parked ones. It
// returns false when nothing is left, having released the slot: from then on
// another drainer may own the connection's flush state (*batch included,
// which is why it is written here, under the lock), so the caller must not
// touch it again.
func (q *outQueue) take(batch *[]netproto.Message, max int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	buf := (*batch)[:0]
	if !q.closed {
		n := min(len(q.q), max)
		buf = append(buf, q.q[:n]...)
		rem := copy(q.q, q.q[n:])
		clear(q.q[rem:])
		q.q = q.q[:rem]
		if rem == 0 {
			for k, m := range q.parked {
				if len(buf) >= max {
					break
				}
				delete(q.parked, k)
				buf = append(buf, m)
			}
		}
	}
	*batch = buf
	if len(buf) == 0 {
		q.scheduled = false
	}
	return len(buf) > 0
}

// pending reports whether the connection still holds undelivered traffic:
// queued messages, or a claimed drain — which covers parked entries, a batch
// being written, and a tail a non-blocking write handed on.
func (q *outQueue) pending() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed && (q.scheduled || len(q.q) > 0)
}

// close marks the connection torn down and releases whatever it still held;
// later enqueues are released on arrival.
func (q *outQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, m := range q.q {
		netproto.Release(m)
	}
	for _, m := range q.parked {
		netproto.Release(m)
	}
	q.q, q.parked = nil, nil
}

// push enqueues a value-initiated Refresh or a pushed QueryUpdate for
// delivery; win is the flush window it may wait out (0: flush at once).
// Pushes for one connection are serialized by connMu, which Set holds across
// its refresh loop.
func (s *Server) push(c *clientConn, m netproto.Message, win time.Duration) {
	switch c.q.push(m, win > 0, maxBatch) {
	case wakeNow:
		c.wake()
	case wakeHold:
		// The first push of a run opens the window on the shared wheel;
		// followers ride it (Schedule keeps the earlier deadline).
		s.wheel.Schedule(&c.timer, win)
	}
}

// reply enqueues the response to a request. Responses can be neither merged
// nor deferred — the client would stall a pipelined call until its timeout
// while the server's subscription state has already advanced — so a peer
// that lets replyBound of them pile up is severed and sees a clean
// connection loss instead of silent divergence. Every call is one frame on
// the wire and is made on the connection's dispatch goroutine, which is what
// lets c.replies number them the way the client counts them.
func (s *Server) reply(c *clientConn, m netproto.Message) {
	c.replies++
	w, ok := c.q.reply(m)
	if !ok {
		s.sever(c, "reply queue overflow")
	} else if w == wakeNow {
		c.wake()
	}
}

// schedule ends c's open flush window, if it has one.
func (s *Server) schedule(c *clientConn) {
	if c.q.schedule() == wakeNow {
		c.wake()
	}
}

// sever is the one way the pipeline gives up on a peer. It shuts the socket
// down in both directions without releasing the descriptor: any blocked or
// later write fails at once, and the driver's reader — a blocked Read, or
// the epoll loop via the hangup event — sees end-of-stream and runs the
// teardown on a goroutine shutdown joins. It never blocks and takes no
// locks, so it is safe under shard locks.
func (s *Server) sever(c *clientConn, why string) {
	s.logf("client %d: %s, dropping connection", c.id, why)
	c.conn.CloseRead()
	c.conn.CloseWrite()
}

// writeFunc puts one encoded batch on c's socket. done is false when it
// could not finish without blocking and has handed the unsent tail (in
// c.w.pend), and the drain slot with it, to a writer that may block.
type writeFunc func(c *clientConn, buf []byte) (done bool, err error)

// writeBlocking is the write func of every drainer that may block: the
// goroutine driver's per-connection writer and the poller's shared pool.
func writeBlocking(c *clientConn, buf []byte) (bool, error) {
	c.conn.SetWriteDeadline(time.Now().Add(flushDeadline))
	_, err := c.conn.Write(buf)
	return true, err
}

// drain runs on whichever goroutine was woken for c's drain slot and flushes
// until take releases it: each batch is encoded into one reused buffer
// (appendFrames) and written with a single call. The slot holder owns c.w.
func (s *Server) drain(c *clientConn, write writeFunc) {
	w := &c.w
	if len(w.pend) > 0 {
		// Bytes a non-blocking attempt left behind ship first.
		_, err := write(c, w.pend)
		w.pend = w.pend[:0]
		if err != nil {
			s.sever(c, "flush: "+err.Error())
			return
		}
	}
	for c.q.take(&w.batch, maxBatch) {
		err := w.appendFrames(w.batch)
		done := true
		if err == nil {
			done, err = write(c, w.buf)
		}
		if err != nil {
			s.sever(c, "flush: "+err.Error())
			return
		}
		if !done {
			return
		}
		if cap(w.buf) > 1<<20 {
			// Don't pin one exceptional burst's high-water mark for the
			// connection's lifetime.
			w.buf = nil
		}
	}
}
