// The connection pipeline: one delivery state machine per connection, driven
// by either I/O driver. A driver owns only when to read (a blocking read
// goroutine, or an epoll loop feeding a StreamDecoder) and how its reader
// writes (writeBlocking, or one non-blocking attempt). One wake serves both
// (Server.wake): a claim made while the reader decodes is drained by that
// reader, any other by a drainer goroutine of the connection's own (goDrain).
// Everything between dispatch and the socket — queue, merge buffer, flush
// window, drain, sever — is the code in this file, under one lock per queue.
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
	replyBound int32 = 1024
	// pushWatermark is the depth at which pushes stop queuing and park in
	// the merge buffer instead.
	pushWatermark = replyBound - replyHeadroom
	// flushDeadline bounds every write that may block. A peer that cannot
	// accept a batch for this long is severed, so a wedged peer cannot park
	// its drainer indefinitely; it never holds up another connection's.
	flushDeadline = 10 * time.Second
)

// pushStats counts a server's merge-buffer traffic across all connections:
// pushes parked on congestion, and later pushes folded into a parked entry.
type pushStats struct{ overflows, merges atomic.Int64 }

// wakeup is what an enqueue asks of its caller.
type wakeup uint8

const (
	wakeNone wakeup = iota // a drain is already claimed, nothing was queued, or a window holds it
	wakeNow                // the drain slot was just claimed: wake the drainer
)

// outQueue is one connection's delivery state machine, and the single
// statement of the delivery contract:
//
//   - Per-key generation order. Messages leave in enqueue order, and a key's
//     refreshes are enqueued under its shard lock, so a client installing
//     them in arrival order preserves validity.
//   - Merge, never drop. A push — a value-initiated refresh, or a
//     QueryUpdate with ID 0 — that finds the queue at pushWatermark parks in
//     the merge buffer, one entry per key or query. While an entry is parked
//     every newer push for it folds in: a refresh by interval union (the
//     union contains the newest interval, so it is valid for the newest
//     value) with latest-wins value and width, a QueryUpdate by replacement
//     (it is a complete answer). Parked entries leave only in a take that
//     found the queue empty, so nothing older can still be queued behind
//     them.
//   - Replies are never merged, held or reordered. One that finds
//     replyBound messages queued means the peer's stream is wedged: reply
//     reports it and the caller severs the connection, as drain does when a
//     write outlasts flushDeadline.
//   - One drain slot. scheduled is set when a wake goes out and cleared by
//     the take that finds queue and merge buffer both empty — the same
//     critical section every enqueue decides in, so no enqueue can land
//     between "nothing left" and "slot released" and be stranded.
//   - A push may wait, unclaimed, for its flush window to expire; a reply,
//     a parked entry or a full run claims the slot at once, ending any open
//     window. pending is therefore exact: traffic is undelivered precisely
//     while the queue is non-empty or the slot is held, which is what
//     Shutdown waits out before dropping connections.
//
// The queue holds no message boxes: a reply or a pushed QueryUpdate is
// encoded into buf as it is enqueued, and the caller keeps its message; a
// refresh push is a value in run until a frame follows it or the drainer
// takes it. The queue also owns the connection's adaptive flush window,
// under the same mu. It touches no socket and starts no goroutine but its
// timer's; enqueues never block, so callers may hold shard locks.
type outQueue struct {
	mu  sync.Mutex
	buf []byte                 // encoded frames, in enqueue order
	run []netproto.RefreshItem // refresh pushes enqueued after buf's last frame
	// The merge buffer: parked refreshes by key, parked answers by QID.
	parked    map[int64]netproto.RefreshItem
	parkedQ   map[uint64]netproto.QueryUpdate
	n         int32 // messages queued: buf's frames and run's pushes, at most replyBound
	scheduled bool
	closed    bool
	stats     *pushStats
	// The flush window: its cap (Config.FlushInterval), the newest windowed
	// push's enqueue time and the EWMA of the gaps between them, and the
	// timer that runs expire when an open window ends.
	window    time.Duration
	last, gap int64
	timer     *time.Timer
	expire    func()
}

// hold folds a push's enqueue time (0: none) into the gap EWMA (alpha 1/8)
// and returns the window it may wait out: the cap less the expected wait for
// the next push, so bursty connections coalesce and quiet ones flush at
// once. A gap counts at most twice the cap, so one idle spell cannot close
// the window on the burst that follows it. The caller holds mu.
func (q *outQueue) hold(now int64) time.Duration {
	if now == 0 || q.window <= 0 {
		return 0
	}
	if q.last != 0 {
		gap := min(max(now-q.last, 0), 2*int64(q.window))
		if q.gap == 0 {
			q.gap = gap
		} else {
			q.gap += (gap - q.gap) / 8
		}
	}
	q.last = now
	return max(q.window-time.Duration(q.gap), 0)
}

// push enqueues a value-initiated refresh. now is its enqueue time
// (UnixNano; 0 for no window); max is the run length (maxBatch outside
// tests) at which a held run flushes on size.
func (q *outQueue) push(it netproto.RefreshItem, now int64, max int32) wakeup {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return wakeNone
	}
	win := q.hold(now)
	if p, ok := q.parked[it.Key]; ok {
		p.Lo, p.Hi = math.Min(p.Lo, it.Lo), math.Max(p.Hi, it.Hi)
		p.Value, p.OriginalWidth = it.Value, it.OriginalWidth
		q.parked[it.Key] = p
		q.stats.merges.Add(1)
		return wakeNone // a parked entry always has the slot claimed
	}
	if q.n >= pushWatermark {
		if q.parked == nil {
			q.parked = make(map[int64]netproto.RefreshItem)
		}
		q.parked[it.Key] = it
		q.stats.overflows.Add(1)
		return q.claim()
	}
	q.run = append(q.run, it)
	q.n++
	if !q.scheduled && win > 0 && q.n < max {
		// An unclaimed queue holds only pushes waiting out a window, so the
		// first of them opens it and the rest ride it. Reset moves a deadline
		// still pending from a window a claim already ended; a fire already
		// under way only claims this run's slot early.
		if q.n == 1 {
			if q.timer == nil {
				q.timer = time.AfterFunc(win, q.expire)
			} else {
				q.timer.Reset(win)
			}
		}
		return wakeNone
	}
	return q.claim()
}

// pushQuery enqueues a pushed standing-query answer (ID 0); the caller keeps
// u. It never waits out a flush window.
func (q *outQueue) pushQuery(u *netproto.QueryUpdate) wakeup {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return wakeNone
	}
	if _, ok := q.parkedQ[u.QID]; ok {
		q.parkedQ[u.QID] = *u
		q.stats.merges.Add(1)
		return wakeNone
	}
	if q.n >= pushWatermark {
		if q.parkedQ == nil {
			q.parkedQ = make(map[uint64]netproto.QueryUpdate)
		}
		q.parkedQ[u.QID] = *u
		q.stats.overflows.Add(1)
		return q.claim()
	}
	q.appendFrame(u) // cannot fail: a run's frames and a QueryUpdate always fit
	return q.claim()
}

// reply encodes the response to a request into the queue; the caller keeps
// m. ok is false when the hard bound or the encoder refused it: the caller
// must sever the connection.
func (q *outQueue) reply(m netproto.Message) (w wakeup, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return wakeNone, true
	}
	if q.n >= replyBound {
		return wakeNone, false
	}
	if ack, isAck := m.(*netproto.QueryUpdate); isAck {
		// A registration ack carries the query's full current answer; a
		// parked update under the same QID belongs to the registration it
		// replaces and must not follow the ack onto the wire.
		delete(q.parkedQ, ack.QID)
	}
	if q.appendFrame(m) != nil {
		return wakeNone, false
	}
	return q.claim(), true
}

// appendFrame encodes m into buf behind the open run, which it encodes
// first, and counts it. The caller holds mu.
func (q *outQueue) appendFrame(m netproto.Message) error {
	buf, err := appendRun(q.buf, q.run)
	if err == nil {
		buf, err = netproto.AppendFrame(buf, m)
	}
	if err == nil {
		q.buf, q.run = buf, q.run[:0]
		q.n++
	}
	return err
}

// appendRun appends items to buf as ID-0 RefreshBatch frames of at most
// maxBatch items each.
func appendRun(buf []byte, items []netproto.RefreshItem) ([]byte, error) {
	var err error
	for len(items) > 0 && err == nil {
		n := min(len(items), maxBatch)
		buf, err = netproto.AppendRefreshBatch(buf, 0, items[:n])
		items = items[n:]
	}
	return buf, err
}

// schedule claims the drain slot for traffic still waiting without one —
// pushes inside a flush window — when the window's timer fires or Shutdown's
// drain ends it. A queue dropClient already closed claims nothing.
func (q *outQueue) schedule() wakeup {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n == 0 {
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

// take hands the drain-slot holder w everything queued, swapping buf and run
// for w's spent ones; only a take that finds both empty hands over the parked
// entries, as values. It returns false when nothing is left, having released
// the slot: from then on another drainer may own w — which is why w is
// written here, under the lock — so the caller must not touch it again.
func (q *outQueue) take(w *connWriter) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	w.buf, w.run, w.answers = w.buf[:0], w.run[:0], w.answers[:0]
	switch {
	case q.closed:
	case q.n > 0:
		if len(q.buf) > 0 { // a run alone is encoded into w's own buffer
			spent := w.buf
			if cap(spent) > netproto.MaxFrame {
				spent = nil // between them, queue and drainer keep one buffer this large
			}
			w.buf, q.buf = q.buf, spent
		}
		w.run, q.run = q.run, w.run
		q.n = 0
		return true
	case len(q.parked) > 0 || len(q.parkedQ) > 0:
		for _, it := range q.parked {
			w.run = append(w.run, it)
		}
		for _, u := range q.parkedQ {
			w.answers = append(w.answers, u)
		}
		clear(q.parked)
		clear(q.parkedQ)
		return true
	}
	q.scheduled = false
	return false
}

// pending reports whether the connection still holds undelivered traffic:
// queued messages, or a claimed drain — which covers parked entries, a batch
// being written, and a tail a non-blocking write handed on.
func (q *outQueue) pending() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed && (q.scheduled || q.n > 0)
}

// close marks the connection torn down, stops its window's timer and drops
// whatever it still held; later enqueues are dropped on arrival.
func (q *outQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if q.timer != nil {
		q.timer.Stop()
	}
	q.buf, q.run, q.n, q.parked, q.parkedQ = nil, nil, 0, nil, nil
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
	} else {
		s.wake(c, w)
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
// c.w.pend), and the drain slot with it, to a drainer that may block.
type writeFunc func(c *clientConn, buf []byte) (done bool, err error)

// writeBlocking is the write func of every drain that may block: the
// goroutine driver's reader draining inline, and a drainer goDrain starts.
func writeBlocking(c *clientConn, buf []byte) (bool, error) {
	c.conn.SetWriteDeadline(time.Now().Add(flushDeadline))
	_, err := c.conn.Write(buf)
	return true, err
}

// Values of clientConn.rd.
const (
	rdIdle    uint32 = iota // no reader is decoding the connection's bytes
	rdReading               // its reader is inside a decode
	rdDrain                 // ... and owes the connection a drain when the decode ends
)

// wake gets c's drain slot drained, from any goroutine, without blocking,
// when w says an enqueue just claimed it. A claim made while c's reader
// decodes is left to that reader: the compare-and-swap lands before the
// reader's closing Swap, which then sees rdDrain and drains before the next
// read, or fails against rdIdle. Any other claim starts a drainer.
func (s *Server) wake(c *clientConn, w wakeup) {
	if w == wakeNow && !c.rd.CompareAndSwap(rdReading, rdDrain) {
		c.goDrain()
	}
}

// goDrain builds c's way to run a drain off its reader: each call starts a
// goroutine that drains c with writeBlocking and exits when take releases
// the slot. The drain slot admits one drainer per connection, so drainers
// are bounded by the connections with traffic in flight, and a wedged peer
// blocks only its own. The goroutine's func is built once, here, so a start
// allocates nothing.
//
// Drainers join serveWG. One rule keeps an Add from racing shutdown's Wait:
// a drainer starts only while c's queue is open, checked under q.mu. Every
// queue is closed (dropClient) by shutdown or by a goroutine serveWG or
// loopWG joins before that Wait, so each Add precedes its queue's close or
// comes while the closer still holds a count.
func (s *Server) goDrain(c *clientConn) func() {
	run := func() {
		defer s.serveWG.Done()
		s.drain(c, writeBlocking)
	}
	return func() {
		c.q.mu.Lock()
		open := !c.q.closed
		if open {
			s.serveWG.Add(1)
		}
		c.q.mu.Unlock()
		if open {
			go run()
		}
	}
}

// connWriter is a connection's flush state, owned by whichever goroutine
// holds its drain slot: the frames a take handed over, with the pushes it
// handed over as values — a run, or parked refreshes and answers — encoded
// behind them, and the tail of a flush a non-blocking write could not finish.
// Nothing here allocates in steady state.
type connWriter struct {
	buf     []byte
	pend    []byte
	run     []netproto.RefreshItem
	answers []netproto.QueryUpdate
}

// encode appends the run and the answers take handed over to buf.
func (w *connWriter) encode() (err error) {
	w.buf, err = appendRun(w.buf, w.run)
	for i := 0; i < len(w.answers) && err == nil; i++ {
		w.buf, err = netproto.AppendFrame(w.buf, &w.answers[i])
	}
	return err
}

// drain runs on whichever goroutine was woken for c's drain slot and flushes
// until take releases it: each take's frames, with its pushes encoded behind
// them outside the queue's lock, go out in a single write. The slot holder
// owns c.w.
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
	for c.q.take(w) {
		err := w.encode()
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
