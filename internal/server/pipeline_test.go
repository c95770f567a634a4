package server

// Tests of the connection pipeline: a socket-free property test of the
// delivery state machine itself, and both-drivers tests of the behaviours
// that need a real congested socket — sever, QueryUpdate coalescing, and
// Shutdown flushing the merge buffer.

import (
	"context"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"apcache/internal/netproto"
)

// forceBounds overrides the pipeline's backpressure bounds for one test.
// Call it before the server starts; the cleanup runs after the server's own
// (registered later) has stopped every goroutine that reads them.
func forceBounds(t *testing.T, watermark, bound int, deadline time.Duration) {
	t.Helper()
	w, b, d := pushWatermark, replyBound, flushDeadline
	t.Cleanup(func() { pushWatermark, replyBound, flushDeadline = w, b, d })
	pushWatermark, replyBound, flushDeadline = watermark, bound, deadline
}

// TestOutQueueDeliveryContract drives one outQueue through seeded random
// interleavings of push / reply / window expiry / take with the watermark
// forced low, playing producer, timer and drainer itself, and checks the
// delivery contract stated on the type. Every push for key k carries the
// next generation g as the interval [g, g+1] with value g, so a delivered
// entry that merged generations a..b reads Lo=a, Value=b: contiguity of
// consecutive deliveries proves order, and that nothing was dropped.
func TestOutQueueDeliveryContract(t *testing.T) {
	forceBounds(t, 4, 12, flushDeadline)
	const keys, queries = 5, 2
	var parks int64  // across all seeds: pushes the forced watermark parked
	var refusals int // ... and replies the forced bound refused
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var stats pushStats
		q := &outQueue{stats: &stats}

		var (
			gen     [keys]float64 // newest generation pushed per key
			seen    [keys]float64 // newest generation delivered per key
			qgen    [queries]float64
			qseen   [queries]float64
			replies []uint64 // accepted reply IDs, in order, not yet delivered
			nextID  uint64
			slot    bool // a wake is outstanding or the drainer is running
			window  bool // a push was told to arm the flush window
		)
		woke := func(w wakeup) {
			switch w {
			case wakeNow:
				if slot {
					t.Fatalf("seed %d: second wake while the drain slot is held", seed)
				}
				slot, window = true, false
			case wakeHold:
				window = true
			}
		}
		deliver := func(batch []netproto.Message) {
			for _, m := range batch {
				switch m := m.(type) {
				case *netproto.Refresh:
					if m.Lo != seen[m.Key]+1 || m.Value < m.Lo || m.Hi != m.Value+1 {
						t.Fatalf("seed %d: key %d delivered generations [%g, %g] after %g", seed, m.Key, m.Lo, m.Value, seen[m.Key])
					}
					seen[m.Key] = m.Value
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
				}
				netproto.Release(m)
			}
		}
		take := func(max int) {
			queued := len(q.q)
			var batch []netproto.Message
			if more := q.take(&batch, max); more != (len(batch) > 0) {
				t.Fatalf("seed %d: take reported %v with %d messages", seed, more, len(batch))
			}
			if len(batch) > max {
				t.Fatalf("seed %d: take(%d) returned %d messages", seed, max, len(batch))
			}
			// Parked entries may only ride a batch that emptied the queue.
			if len(batch) > queued && len(q.q) != 0 {
				t.Fatalf("seed %d: parked entries shipped with %d messages still queued", seed, len(q.q))
			}
			deliver(batch)
			if len(batch) == 0 {
				slot = false
				if len(q.q) != 0 || len(q.parked) != 0 {
					t.Fatalf("seed %d: slot released with %d queued, %d parked", seed, len(q.q), len(q.parked))
				}
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				k := rng.Intn(keys)
				gen[k]++
				m := netproto.GetRefresh()
				*m = netproto.Refresh{Key: int64(k), Kind: netproto.KindValueInitiated, Value: gen[k], Lo: gen[k], Hi: gen[k] + 1}
				woke(q.push(m, rng.Intn(2) == 0, 3))
			case op < 5:
				k := rng.Intn(queries)
				qgen[k]++
				m := netproto.GetQueryUpdate()
				*m = netproto.QueryUpdate{QID: uint64(k), Value: qgen[k]}
				woke(q.push(m, false, 3))
			case op < 7:
				nextID++
				full := len(q.q) >= replyBound
				w, ok := q.reply(&netproto.Pong{ID: nextID})
				if ok == full {
					t.Fatalf("seed %d: reply with %d queued (bound %d) reported ok=%v", seed, len(q.q), replyBound, ok)
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
					take(1 + rng.Intn(4))
				}
			}
			if len(q.parked) > 0 && !q.scheduled {
				t.Fatalf("seed %d: %d entries parked with no drain claimed", seed, len(q.parked))
			}
			if len(q.q) > 0 && !q.scheduled && !window {
				t.Fatalf("seed %d: %d messages queued with neither a drain claimed nor a window open", seed, len(q.q))
			}
			if q.scheduled != slot {
				t.Fatalf("seed %d: scheduled=%v but the model's slot=%v", seed, q.scheduled, slot)
			}
			if got, want := q.pending(), len(q.q) > 0 || slot; got != want {
				t.Fatalf("seed %d: pending()=%v with %d queued, slot=%v", seed, got, len(q.q), slot)
			}
		}
		// Window expiry, then drain to the end: everything pushed arrives.
		woke(q.schedule())
		for slot {
			take(3)
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
			if err := netproto.Write(conn, &netproto.Subscribe{ID: 1, Key: 0}); err != nil {
				t.Fatal(err)
			}
			if _, err := netproto.ReadMsg(conn); err != nil {
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
// update it sees is the engine's current answer.
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
		if err := netproto.Write(conn, &netproto.RegisterQuery{ID: 2, QID: 9, Kind: netproto.AggSum, Delta: 1, Keys: keys}); err != nil {
			t.Fatal(err)
		}
		if ack, err := netproto.ReadMsg(conn); err != nil {
			t.Fatal(err)
		} else if u, ok := ack.(*netproto.QueryUpdate); !ok || u.ID != 2 || u.QID != 9 {
			t.Fatalf("registration ack %#v", ack)
		}
		jam(t, s, conn)

		// Stalled reader: every member Set moves the SUM and pushes an update.
		v := 0.0
		for i := 0; i < 500000 && s.Stats().PushMerges < jammedMerges; i++ {
			v += 1e6
			s.Set(i%members, v)
		}
		if s.Stats().PushMerges < jammedMerges {
			t.Fatal("flood never jammed the connection")
		}
		if s.Clients() != 1 {
			t.Fatal("the QueryUpdate burst severed the connection")
		}
		var owner int
		s.connMu.Lock()
		for id := range s.conns {
			owner = id
		}
		s.connMu.Unlock()
		want, _, ok := s.queries.Answer(owner, 9)
		if !ok {
			t.Fatal("engine lost the query")
		}

		// Reader resumes. The Pong proves the connection still serves
		// requests; the parked update follows the queued backlog, so keep
		// reading until the engine's answer has arrived too.
		if err := netproto.Write(conn, &netproto.Ping{ID: 3}); err != nil {
			t.Fatal(err)
		}
		var last *netproto.QueryUpdate
		for ponged := false; !ponged || last == nil || last.Lo != want.Lo || last.Hi != want.Hi; {
			msg, err := netproto.ReadMsg(conn)
			if err != nil {
				t.Fatalf("draining the backlog (ponged=%v, last update %#v, engine's answer %v): %v", ponged, last, want, err)
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
		if _, err := netproto.ReadMsg(conn); err != nil {
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
			msg, err := netproto.ReadMsg(conn)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reading the drained stream: %v", err)
			}
			var items []netproto.RefreshItem
			switch m := msg.(type) {
			case *netproto.Refresh:
				items = []netproto.RefreshItem{m.Item()}
			case *netproto.RefreshBatch:
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
