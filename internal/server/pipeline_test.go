package server

// Tests of the connection pipeline: a socket-free property test of the
// delivery state machine itself, and both-drivers tests of the behaviours
// that need a real congested socket — sever, QueryUpdate coalescing, and
// Shutdown flushing the merge buffer.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/query"
)

// forceBounds overrides the pipeline's backpressure bounds for one test.
// Call it before the server starts; the cleanup runs after the server's own
// (registered later) has stopped every goroutine that reads them.
func forceBounds(t *testing.T, watermark, bound int32, deadline time.Duration) {
	t.Helper()
	w, b, d := pushWatermark, replyBound, flushDeadline
	t.Cleanup(func() { pushWatermark, replyBound, flushDeadline = w, b, d })
	pushWatermark, replyBound, flushDeadline = watermark, bound, deadline
}

// TestOutQueueDeliveryContract drives one outQueue through seeded random
// interleavings of push / reply / window expiry / take with the watermark
// forced low, playing producer, timer and drainer itself, and checks the
// delivery contract stated on the type on the bytes a drain would write,
// decoded with a StreamDecoder. Every push for key k carries the next
// generation g as the interval [g, g+1] with value g, so a delivered entry
// that merged generations a..b reads Lo=a, Value=b: contiguity of
// consecutive deliveries proves order, and that nothing was dropped.
func TestOutQueueDeliveryContract(t *testing.T) {
	forceBounds(t, 4, 12, flushDeadline)
	const keys, queries = 5, 2
	var parks int64  // across all seeds: pushes the forced watermark parked
	var refusals int // ... and replies the forced bound refused
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var stats pushStats
		// The window is long enough never to expire on its own: the model
		// stops the timer after every push and counts a stopped one as a
		// window the push armed.
		q := &outQueue{stats: &stats, window: time.Hour, expire: func() {}}
		var w connWriter
		dec := netproto.NewStreamDecoder()

		var (
			gen     [keys]float64 // newest generation pushed per key
			seen    [keys]float64 // newest generation delivered per key
			qgen    [queries]float64
			qseen   [queries]float64
			replies []uint64 // accepted reply IDs, in order, not yet delivered
			nextID  uint64
			slot    bool // a wake is outstanding or the drainer is running
			window  bool // a push armed the flush window's timer
		)
		parked := func() int { return len(q.parked) + len(q.parkedQ) }
		woke := func(w wakeup) {
			if w == wakeNow {
				if slot {
					t.Fatalf("seed %d: second wake while the drain slot is held", seed)
				}
				slot, window = true, false
			}
			if q.timer != nil && q.timer.Stop() {
				window = true
			}
		}
		deliver := func(m netproto.Message) error {
			switch m := m.(type) {
			case *netproto.RefreshBatch:
				if m.ID != 0 || len(m.Items) > maxBatch {
					t.Fatalf("seed %d: push frame with ID %d and %d items", seed, m.ID, len(m.Items))
				}
				for _, it := range m.Items {
					if it.Lo != seen[it.Key]+1 || it.Value < it.Lo || it.Hi != it.Value+1 {
						t.Fatalf("seed %d: key %d delivered generations [%g, %g] after %g", seed, it.Key, it.Lo, it.Value, seen[it.Key])
					}
					seen[it.Key] = it.Value
				}
			case *netproto.QueryUpdate:
				if m.Value <= qseen[m.QID] {
					t.Fatalf("seed %d: query %d delivered answer %g after %g", seed, m.QID, m.Value, qseen[m.QID])
				}
				qseen[m.QID] = m.Value
			case *netproto.Pong:
				if len(replies) == 0 || replies[0] != m.ID {
					t.Fatalf("seed %d: reply %d delivered, accepted order is %v", seed, m.ID, replies)
				}
				replies = replies[1:]
			default:
				t.Fatalf("seed %d: unexpected frame %#v", seed, m)
			}
			return nil
		}
		take := func() {
			queued, held := q.n, parked()
			more := q.take(&w)
			if err := w.encode(); err != nil {
				t.Fatalf("seed %d: encode: %v", seed, err)
			}
			if more != (len(w.buf) > 0) {
				t.Fatalf("seed %d: take reported %v with %d bytes to write", seed, more, len(w.buf))
			}
			// Parked entries may only leave in a take that found the queue
			// empty, and such a take hands over all of them.
			if queued > 0 && parked() != held || queued == 0 && parked() != 0 {
				t.Fatalf("seed %d: a take of %d queued messages left %d of %d parked", seed, queued, parked(), held)
			}
			if q.n != 0 {
				t.Fatalf("seed %d: %d messages still queued after a take", seed, q.n)
			}
			if err := dec.Feed(w.buf, deliver); err != nil || dec.Pending() != 0 {
				t.Fatalf("seed %d: decoding the drain: %v (%d bytes left over)", seed, err, dec.Pending())
			}
			if !more {
				slot = false
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				k := rng.Intn(keys)
				gen[k]++
				now := int64(0)
				if rng.Intn(2) == 0 {
					now = int64(step + 1)
				}
				woke(q.push(netproto.RefreshItem{Key: int64(k), Kind: netproto.KindValueInitiated, Value: gen[k], Lo: gen[k], Hi: gen[k] + 1}, now, 3))
			case op < 5:
				k := rng.Intn(queries)
				qgen[k]++
				woke(q.pushQuery(&netproto.QueryUpdate{QID: uint64(k), Value: qgen[k]}))
			case op < 7:
				nextID++
				full := q.n >= replyBound
				w, ok := q.reply(&netproto.Pong{ID: nextID})
				if ok == full {
					t.Fatalf("seed %d: reply with %d queued (bound %d) reported ok=%v", seed, q.n, replyBound, ok)
				}
				if ok {
					replies = append(replies, nextID)
				} else {
					refusals++
				}
				woke(w)
			case op < 8:
				woke(q.schedule())
			default:
				if slot {
					take()
				}
			}
			if parked() > 0 && !q.scheduled {
				t.Fatalf("seed %d: %d entries parked with no drain claimed", seed, parked())
			}
			if q.n > 0 && !q.scheduled && !window {
				t.Fatalf("seed %d: %d messages queued with neither a drain claimed nor a window open", seed, q.n)
			}
			if q.scheduled != slot {
				t.Fatalf("seed %d: scheduled=%v but the model's slot=%v", seed, q.scheduled, slot)
			}
			if got, want := q.pending(), q.n > 0 || slot; got != want {
				t.Fatalf("seed %d: pending()=%v with %d queued, slot=%v", seed, got, q.n, slot)
			}
		}
		// Window expiry, then drain to the end: everything pushed arrives.
		woke(q.schedule())
		for slot {
			take()
		}
		if q.pending() {
			t.Fatalf("seed %d: pending after a full drain", seed)
		}
		if seen != gen || qseen != qgen || len(replies) != 0 {
			t.Fatalf("seed %d: delivered %v %v (replies left %v), pushed %v %v", seed, seen, qseen, replies, gen, qgen)
		}
		parks += stats.overflows.Load()
	}
	if parks == 0 || refusals == 0 {
		t.Fatalf("%d pushes parked, %d replies refused: the forced bounds are not exercising the contract", parks, refusals)
	}
}

// TestLongPushRunSplitsIntoFrames: a run longer than maxBatch leaves as ID-0
// RefreshBatch frames of at most maxBatch items, in push order, whether a
// reply closes it under the queue's lock or the drainer encodes it.
func TestLongPushRunSplitsIntoFrames(t *testing.T) {
	const pushes = 300
	for _, withReply := range []bool{true, false} {
		var stats pushStats
		q := &outQueue{stats: &stats}
		var w connWriter
		for k := 0; k < pushes; k++ {
			woke := q.push(netproto.RefreshItem{Key: int64(k), Kind: netproto.KindValueInitiated, Value: float64(k)}, 0, maxBatch)
			if woke != wakeNone && k > 0 || !q.scheduled {
				t.Fatalf("push %d: wake %v with the drain slot claimed=%v", k, woke, q.scheduled)
			}
		}
		if withReply {
			if _, ok := q.reply(&netproto.Pong{ID: 7}); !ok {
				t.Fatal("reply refused")
			}
		}
		if !q.take(&w) {
			t.Fatal("take found nothing")
		}
		if err := w.encode(); err != nil {
			t.Fatal(err)
		}
		var next int64
		var frames []int
		ponged := false
		err := netproto.NewStreamDecoder().Feed(w.buf, func(m netproto.Message) error {
			switch m := m.(type) {
			case *netproto.RefreshBatch:
				if ponged || m.ID != 0 || len(m.Items) > maxBatch {
					t.Fatalf("reply=%v: push frame with ID %d and %d items after the reply=%v", withReply, m.ID, len(m.Items), ponged)
				}
				for _, it := range m.Items {
					if it.Key != next {
						t.Fatalf("reply=%v: key %d delivered where %d was next", withReply, it.Key, next)
					}
					next++
				}
				frames = append(frames, len(m.Items))
			case *netproto.Pong:
				ponged = m.ID == 7
			default:
				t.Fatalf("unexpected frame %#v", m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != pushes || ponged != withReply {
			t.Fatalf("reply=%v: delivered %d of %d pushes in frames %v, reply seen %v", withReply, next, pushes, frames, ponged)
		}
		t.Logf("reply=%v: frames of %v items", withReply, frames)
	}
}

// jam shrinks both ends' socket buffers so a peer that stops reading wedges
// the server's writer after kilobytes rather than megabytes.
func jam(t *testing.T, s *Server, client net.Conn) {
	t.Helper()
	client.(*net.TCPConn).SetReadBuffer(4 << 10)
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for _, c := range s.conns {
		c.conn.SetWriteBuffer(4 << 10)
	}
}

// jammedMerges is how many folds a flood must see before a test may assume
// the socket is full: a drainer that is merely slow empties the merge buffer
// every few pushes, so only one blocked in write lets folds pile up.
const jammedMerges = 2000

func waitNoClients(t *testing.T, s *Server, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Clients() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: server still holds the connection", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWedgedPeerIsSevered: a peer that never reads must not park a writer
// for good on either driver. A blocked flush gives up after flushDeadline; a
// reply that finds replyBound messages queued gives up at once. Both sever
// the same way, and the teardown — including the subscription sweep — is
// complete by the time Close returns.
func TestWedgedPeerIsSevered(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		t.Run("flush deadline", func(t *testing.T) {
			forceBounds(t, pushWatermark, replyBound, 100*time.Millisecond)
			cfg := testConfig()
			cfg.Params.Alpha = 0 // freeze widths so every escaping update keeps pushing
			s, addr := listenMode(t, cfg, mode)
			s.SetInitial(0, 0)
			conn := rawDial(t, addr)
			hello(t, conn)
			if err := netproto.Write(conn, subscribeOne(1, 0)); err != nil {
				t.Fatal(err)
			}
			if _, err := readMsg(conn); err != nil {
				t.Fatal(err)
			}
			jam(t, s, conn)
			// Keep pushing until the jammed flush has outlasted its deadline;
			// once the socket is full every further push just folds.
			v := 0.0
			for start := time.Now(); s.Clients() != 0 && time.Since(start) < 10*time.Second; {
				v += 1e9
				s.Set(0, v)
			}
			waitNoClients(t, s, "after the flush deadline")
			s.Close()
			for i, sh := range s.Stats().PerShard {
				if sh.Subscriptions != 0 {
					t.Errorf("shard %d still holds %d subscriptions after Close", i, sh.Subscriptions)
				}
			}
		})
		t.Run("reply bound", func(t *testing.T) {
			forceBounds(t, 4, 8, flushDeadline)
			s, addr := listenMode(t, testConfig(), mode)
			conn := rawDial(t, addr)
			hello(t, conn)
			jam(t, s, conn)
			frame, err := netproto.AppendFrame(nil, &netproto.Ping{ID: 1})
			if err != nil {
				t.Fatal(err)
			}
			burst := make([]byte, 0, 512*len(frame))
			for i := 0; i < 512; i++ {
				burst = append(burst, frame...)
			}
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			for i := 0; i < 400 && s.Clients() != 0; i++ {
				if _, err := conn.Write(burst); err != nil {
					break // severed under us
				}
			}
			waitNoClients(t, s, "after the reply bound")
		})
	})
}

// TestQueryUpdatesCoalesceUnderCongestion: a pushed QueryUpdate is a full
// answer, so a stalled reader's backlog of them folds latest-wins per query
// in the merge buffer instead of filling the reply bound and severing the
// connection. When the reader resumes, the connection is alive and the last
// update it sees answers the members' final values, no wider than Delta.
func TestQueryUpdatesCoalesceUnderCongestion(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		forceBounds(t, 4, 16, flushDeadline)
		cfg := testConfig()
		cfg.Params.Alpha = 0
		s, addr := listenMode(t, cfg, mode)
		const members = 4
		keys := make([]int64, members)
		for k := range keys {
			keys[k] = int64(k)
			s.SetInitial(k, 0)
		}
		conn := rawDial(t, addr)
		hello(t, conn)
		const delta = 1
		if err := netproto.Write(conn, &netproto.RegisterQuery{ID: 2, QID: 9, Kind: query.Sum, Delta: delta, Keys: keys}); err != nil {
			t.Fatal(err)
		}
		if ack, err := readMsg(conn); err != nil {
			t.Fatal(err)
		} else if u, ok := ack.(*netproto.QueryUpdate); !ok || u.ID != 2 || u.QID != 9 {
			t.Fatalf("registration ack %#v", ack)
		}
		jam(t, s, conn)

		// Stalled reader: every member Set moves the SUM and pushes an update.
		var final [members]float64
		v := 0.0
		for i := 0; i < 500000 && s.Stats().PushMerges < jammedMerges; i++ {
			v += 1e6
			s.Set(i%members, v)
			final[i%members] = v
		}
		if s.Stats().PushMerges < jammedMerges {
			t.Fatal("flood never jammed the connection")
		}
		if s.Clients() != 1 {
			t.Fatal("the QueryUpdate burst severed the connection")
		}
		sum := 0.0
		for _, f := range final {
			sum += f
		}

		// Reader resumes. The Pong proves the connection still serves
		// requests; the parked update follows the queued backlog, so keep
		// reading until the answer to the final values has arrived too. Every
		// Set moved the SUM by 1e6, far more than Delta, so no earlier answer
		// contains the final SUM.
		if err := netproto.Write(conn, &netproto.Ping{ID: 3}); err != nil {
			t.Fatal(err)
		}
		var last *netproto.QueryUpdate
		for ponged := false; !ponged || last == nil || sum < last.Lo || sum > last.Hi; {
			msg, err := readMsg(conn)
			if err != nil {
				t.Fatalf("draining the backlog (ponged=%v, last update %#v, final SUM %g): %v", ponged, last, sum, err)
			}
			switch m := msg.(type) {
			case *netproto.QueryUpdate:
				if m.ID != 0 || m.QID != 9 || (last != nil && m.Value < last.Value) {
					t.Fatalf("pushed update %#v after %#v", m, last)
				}
				last = m
			case *netproto.Pong:
				ponged = m.ID == 3
			}
		}
		if w := last.Hi - last.Lo; w > delta {
			t.Errorf("the last update %#v is %g wide, over the query's Delta %g", last, w, float64(delta))
		}
	})
}

// TestShutdownFlushesParkedPushes covers the drain case the chaos suite's
// TestShutdownDrainDeliversFinalValues cannot reach: the reader is slow, the
// queue congested, and the newest pushes sit in the merge buffer when
// Shutdown starts. All of them must be on the wire, in per-key order, when
// it returns.
func TestShutdownFlushesParkedPushes(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		forceBounds(t, 8, 64, flushDeadline)
		cfg := testConfig()
		cfg.Params.Alpha = 0
		cfg.FlushInterval = 2 * time.Millisecond
		s, addr := listenMode(t, cfg, mode)
		const keys = 16
		all := make([]int64, keys)
		for k := range all {
			all[k] = int64(k)
			s.SetInitial(k, 0)
		}
		conn := rawDial(t, addr)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		hello(t, conn)
		if err := netproto.Write(conn, &netproto.SubscribeMulti{ID: 2, Keys: all}); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil {
			t.Fatal(err)
		}
		jam(t, s, conn)

		final := make([]float64, keys)
		v := 0.0
		for i := 0; i < 500000 && (s.Stats().PushMerges < jammedMerges || i%keys != 0); i++ {
			v += 1e9
			s.Set(i%keys, v)
			final[i%keys] = v
		}
		parked := 0
		s.connMu.Lock()
		for _, c := range s.conns {
			c.q.mu.Lock()
			parked = len(c.q.parked)
			c.q.mu.Unlock()
		}
		s.connMu.Unlock()
		if parked == 0 {
			t.Fatal("nothing parked when Shutdown starts; the test is not reaching the merge buffer")
		}

		shut := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			shut <- s.Shutdown(ctx)
		}()
		last := make([]netproto.RefreshItem, keys)
		for {
			msg, err := readMsg(conn)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reading the drained stream: %v", err)
			}
			var items []netproto.RefreshItem
			if m, ok := msg.(*netproto.RefreshBatch); ok {
				items = m.Items
			}
			for _, it := range items {
				if it.Value <= last[it.Key].Value {
					t.Fatalf("key %d: value %g arrived after %g", it.Key, it.Value, last[it.Key].Value)
				}
				last[it.Key] = it
			}
			time.Sleep(50 * time.Microsecond) // a slow reader, not a stopped one
		}
		if err := <-shut; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		for k, it := range last {
			if it.Lo > final[k] || final[k] > it.Hi {
				t.Errorf("key %d: last delivered [%g, %g] does not contain the final value %g", k, it.Lo, it.Hi, final[k])
			}
		}
	})
}

// TestWedgedPeerDelaysNoOtherPeer: a peer that stops reading parks only its
// own drainer in a blocked write, for up to flushDeadline. Behind GOMAXPROCS
// such peers, a healthy peer's push still arrives at once on either driver.
func TestWedgedPeerDelaysNoOtherPeer(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		forceBounds(t, pushWatermark, replyBound, 3*time.Second)
		cfg := testConfig()
		cfg.Params.Alpha = 0 // freeze widths so every escaping update keeps pushing
		s, addr := listenMode(t, cfg, mode)
		wedged := runtime.GOMAXPROCS(0)
		for k := 0; k <= wedged; k++ {
			s.SetInitial(k, 0)
		}
		subscribe := func(conn net.Conn, key int64) {
			t.Helper()
			hello(t, conn)
			if err := netproto.Write(conn, subscribeOne(2, key)); err != nil {
				t.Fatal(err)
			}
			if _, err := readMsg(conn); err != nil {
				t.Fatal(err)
			}
		}
		healthy := rawDial(t, addr)
		subscribe(healthy, 0)
		for k := 1; k <= wedged; k++ {
			conn := rawDial(t, addr)
			subscribe(conn, int64(k))
			jam(t, s, conn)
		}
		// Flood the wedged peers' keys. The sleeps let their drainers run up
		// to their full sockets even on one CPU.
		v := 0.0
		for start, round := time.Now(), 0; time.Since(start) < 300*time.Millisecond; round++ {
			v += 1e9
			for k := 1; k <= wedged; k++ {
				s.Set(k, v)
			}
			if round%200 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		if s.Stats().PushMerges < jammedMerges {
			t.Fatal("flood never jammed the wedged peers")
		}
		start := time.Now()
		s.Set(0, 1e12)
		msg, err := readMsg(healthy)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		t.Logf("the healthy peer's push arrived in %v behind %d wedged peers", took, wedged)
		if rb, ok := msg.(*netproto.RefreshBatch); !ok || rb.ID != 0 || len(rb.Items) != 1 || rb.Items[0].Key != 0 {
			t.Fatalf("healthy peer got %#v, want its one push", msg)
		}
		if took > 500*time.Millisecond {
			t.Errorf("the healthy peer's push took %v behind %d wedged peers", took, wedged)
		}
	})
}

// TestCloseJoinsDrainers: Close returns only after every drainer has exited,
// including those started by a Set or a flush window's timer racing the
// teardown. Sixteen connections with flush windows take a flood of pushes
// that Close interrupts. When Close returns no goroutine is inside a drain,
// nothing has panicked (under -race, a drainer started after Close began
// waiting is reported), and the goroutine count settles back to its value
// before Listen.
func TestCloseJoinsDrainers(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		const conns = 16
		cfg := testConfig()
		cfg.Params.Alpha = 0
		cfg.ConnMode = mode
		cfg.FlushInterval = time.Millisecond
		s := New(cfg)
		for k := 0; k < conns; k++ {
			s.SetInitial(k, 0)
		}
		g0 := settle()
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		var readers sync.WaitGroup
		for k := 0; k < conns; k++ {
			conn := rawDial(t, addr.String())
			hello(t, conn)
			if err := netproto.Write(conn, subscribeOne(2, int64(k))); err != nil {
				t.Fatal(err)
			}
			readers.Add(1)
			go func() {
				defer readers.Done()
				io.Copy(io.Discard, conn) // until the server closes it
			}()
		}
		stop := make(chan struct{})
		flooded := make(chan struct{})
		go func() {
			defer close(flooded)
			v := 0.0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v += 1e9
				s.Set(i%conns, v)
			}
		}()
		time.Sleep(20 * time.Millisecond)
		s.Close()
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		if bytes.Contains(stacks, []byte("server.(*Server).drain(")) {
			t.Errorf("a drainer outlived Close:\n%s", stacks)
		}
		close(stop)
		<-flooded
		readers.Wait()
		if g := settle(); g != g0 {
			t.Errorf("%d goroutines after Close, %d before Listen", g, g0)
		}
	})
}

// goroutineStacks returns one stack trace per live goroutine.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestReplyDrainsOnItsReader: under the goroutine driver a reply leaves from
// the read goroutine that decoded its request. A peer pipelines pings without
// reading until the server's write blocks; the blocked drain must sit under
// readLoop, and no drainer goroutine may exist for the connection.
func TestReplyDrainsOnItsReader(t *testing.T) {
	s, addr := listenMode(t, testConfig(), ConnModeGoroutine)
	conn := rawDial(t, addr)
	hello(t, conn)
	jam(t, s, conn)
	frame, err := netproto.AppendFrame(nil, &netproto.Ping{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	burst := bytes.Repeat(frame, 256)
	writing := make(chan struct{})
	go func() {
		defer close(writing)
		for {
			if _, err := conn.Write(burst); err != nil {
				return // the server blocked long enough, or the test closed conn
			}
		}
	}()
	defer func() {
		conn.Close()
		<-writing
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		blocked := false
		for _, g := range goroutineStacks() {
			if strings.Contains(g, "server.(*Server).goDrain.func") {
				t.Fatalf("a drainer goroutine serves the connection:\n%s", g)
			}
			if strings.Contains(g, "server.(*Server).drain(") && strings.Contains(g, "server.(*Server).readLoop(") &&
				strings.Contains(g, "server.writeBlocking(") {
				blocked = true
			}
		}
		if blocked {
			return
		}
		if s.Clients() == 0 {
			t.Fatal("the connection was severed before its reader blocked in a drain")
		}
		if time.Now().After(deadline) {
			t.Fatal("no drain blocked under readLoop")
		}
	}
}

// TestClosedQueueStartsNoDrainer: a wake for a connection whose queue is
// already closed starts no drainer, so nothing — not even an unsent tail left
// in c.w.pend — reaches the socket.
func TestClosedQueueStartsNoDrainer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer := rawDial(t, ln.Addr().String())
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	s := New(testConfig())
	c := &clientConn{id: 1, conn: sc.(*net.TCPConn)}
	c.q.stats = &s.pushStats
	c.goDrain = s.goDrain(c)
	c.w.pend = []byte("x")
	c.q.close()
	s.wake(c, wakeNow) // rd is idle: no reader will drain, so only a drainer could
	peer.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var b [1]byte
	if n, err := peer.Read(b[:]); n > 0 {
		t.Errorf("the peer read %q from a closed queue's connection", b[:n])
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("peer read: %v, want a timeout", err)
	}
	s.serveWG.Wait()
}

// TestConcurrentCloseWaitsForStop: two Close calls race on a durable server
// with pushes in flight. Whichever returns, and whenever, the server has
// stopped: no event loop or drain is running, and the engine is closed — a
// Set journals nothing.
func TestConcurrentCloseWaitsForStop(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		for round := 0; round < 3; round++ {
			cfg := durableConfig(t.TempDir())
			cfg.ConnMode = mode
			cfg.Params.Alpha = 0
			s, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			const conns = 4
			for k := 0; k < conns; k++ {
				s.SetInitial(k, 0)
			}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			for k := 0; k < conns; k++ {
				conn := rawDial(t, addr.String())
				hello(t, conn)
				if err := netproto.Write(conn, subscribeOne(2, int64(k))); err != nil {
					t.Fatal(err)
				}
				go io.Copy(io.Discard, conn) // until the server closes it
			}
			stop := make(chan struct{})
			flooded := make(chan struct{})
			go func() {
				defer close(flooded)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s.Set(i%conns, float64(i)*1e9)
				}
			}()
			time.Sleep(10 * time.Millisecond)
			var closers sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < 2; i++ {
				closers.Add(1)
				go func() {
					defer closers.Done()
					<-start
					s.Close()
					for _, g := range goroutineStacks() {
						if strings.Contains(g, "server.(*pollCore).eventLoop(") || strings.Contains(g, "server.(*Server).drain(") {
							t.Errorf("still running after Close returned:\n%s", g)
						}
					}
					before := s.eng.Log().Records()
					s.Set(0, -1)
					if after := s.eng.Log().Records(); after != before {
						t.Errorf("the journal went from %d to %d records across a Set after Close: the engine is still open", before, after)
					}
				}()
			}
			close(start)
			closers.Wait()
			close(stop)
			<-flooded
		}
	})
}
