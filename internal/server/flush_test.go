package server

// Tests of the adaptive per-connection flush window: a deterministic unit
// test of the EWMA/window computation driven by synthetic timestamps, and
// integration tests over real connections showing that a bursty push stream
// coalesces into few RefreshBatch frames while a quiet connection's pushes
// flush immediately, at far less added latency than the static window.

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/shard"
)

// TestFlushWindowAdapts drives a queue's gap EWMA with an injected clock
// (synthetic nanosecond timestamps — no real time involved) and checks the
// derived window at both extremes and in between.
func TestFlushWindowAdapts(t *testing.T) {
	const max = 10 * time.Millisecond
	// window returns the flush window a push enqueued at now would get.
	window := func(q *outQueue, now int64) time.Duration {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.hold(now)
	}

	// No history: the full static window applies.
	if w := window(&outQueue{window: max}, 1_000_000); w != max {
		t.Errorf("cold window = %v, want %v", w, max)
	}
	// FlushInterval 0 disables the window regardless of history.
	if w := window(&outQueue{}, 1_000_000); w != 0 {
		t.Errorf("disabled window = %v, want 0", w)
	}

	// Bursty: pushes 100µs apart. EWMA converges to ~100µs, so the window
	// stays within a hair of the full cap.
	c := &outQueue{window: max}
	var bursty time.Duration
	now := int64(1_000_000)
	for i := 0; i < 50; i++ {
		bursty = window(c, now)
		now += int64(100 * time.Microsecond)
	}
	if bursty < max-200*time.Microsecond || bursty > max {
		t.Errorf("bursty window = %v, want ≈%v", bursty, max)
	}

	// Quiet: pushes 50ms apart — beyond the cap. The EWMA crosses it and
	// the window collapses to zero: flush immediately.
	c2 := &outQueue{window: max}
	var w time.Duration
	now = int64(1_000_000)
	for i := 0; i < 50; i++ {
		w = window(c2, now)
		now += int64(50 * time.Millisecond)
	}
	if w != 0 {
		t.Errorf("quiet window = %v, want 0", w)
	}

	// In between: gaps of 4ms against a 10ms cap leave a ~6ms window —
	// clamped to [0, max], monotone in the gap.
	c3 := &outQueue{window: max}
	var mid time.Duration
	now = int64(1_000_000)
	for i := 0; i < 50; i++ {
		mid = window(c3, now)
		now += int64(4 * time.Millisecond)
	}
	if mid <= 0 || mid >= max {
		t.Errorf("mid window = %v, want in (0, %v)", mid, max)
	}
	if mid < 5*time.Millisecond || mid > 7*time.Millisecond {
		t.Errorf("mid window = %v, want ≈6ms", mid)
	}

	// A connection turning bursty after a quiet phase re-opens its window.
	for i := 0; i < 50; i++ {
		w = window(c2, now)
		now += int64(100 * time.Microsecond)
	}
	if w == 0 {
		t.Errorf("window stayed closed after the connection turned bursty")
	}

	// Idle-then-burst: a single multi-second idle gap is clamped before it
	// enters the EWMA, so the first pushes of the following burst still see
	// an open window (an unclamped gap would close it for dozens of
	// pushes).
	c4 := &outQueue{window: max}
	now = int64(1_000_000)
	for i := 0; i < 10; i++ {
		window(c4, now)
		now += int64(100 * time.Microsecond)
	}
	now += int64(5 * time.Second) // idle period
	// first push of the new burst
	if w := window(c4, now); w < max/2 {
		t.Errorf("post-idle window = %v, want ≥%v (idle gap must not close the burst window)", w, max/2)
	}
}

// collectPushFrames reads frames until n pushed refreshes have arrived,
// returning how many frames carried them.
func collectPushFrames(t *testing.T, conn net.Conn, n int) int {
	t.Helper()
	frames, got := 0, 0
	for got < n {
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatalf("after %d/%d refreshes: %v", got, n, err)
		}
		frames++
		switch m := msg.(type) {
		case *netproto.RefreshBatch:
			if m.ID != 0 {
				t.Fatalf("push batch with ID %d", m.ID)
			}
			got += len(m.Items)
		default:
			t.Fatalf("unexpected frame %#v", msg)
		}
	}
	return frames
}

// TestAdaptiveFlushBurstyCoalesces: a push stream whose gaps are far below
// FlushInterval must coalesce into far fewer frames than pushes — the
// adaptive window holds (nearly) the whole static budget open.
func TestAdaptiveFlushBurstyCoalesces(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.Params.Alpha = 0 // freeze widths so every 1e9 jump escapes and pushes
		cfg.FlushInterval = 100 * time.Millisecond
		s, addr := listenMode(t, cfg, mode)
		s.SetInitial(0, 0)
		conn := rawDial(t, addr)
		hello(t, conn)
		if err := netproto.Write(conn, subscribeOne(1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil { // initial refresh
			t.Fatal(err)
		}

		// Trickle pushes at ~1ms gaps: each Set escapes the interval (huge
		// jumps), so each pushes exactly one refresh. 40 pushes span ~40ms,
		// well inside the 100ms window — they must not arrive one frame each.
		const pushes = 40
		go func() {
			v := 1e9
			for i := 0; i < pushes; i++ {
				s.Set(0, v)
				v += 1e9
				time.Sleep(time.Millisecond)
			}
		}()
		frames := collectPushFrames(t, conn, pushes)
		if frames > pushes/4 {
			t.Errorf("bursty stream: %d pushes arrived in %d frames; expected aggressive coalescing", pushes, frames)
		}
	})
}

// TestAdaptiveFlushQuietLowLatency: once a connection's observed gaps exceed
// FlushInterval, each push must flush immediately instead of being held for
// the static window.
func TestAdaptiveFlushQuietLowLatency(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.Params.Alpha = 0 // freeze widths so every 1e9 jump escapes and pushes
		cfg.FlushInterval = 300 * time.Millisecond
		s, addr := listenMode(t, cfg, mode)
		s.SetInitial(0, 0)
		conn := rawDial(t, addr)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		hello(t, conn)
		if err := netproto.Write(conn, subscribeOne(1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil {
			t.Fatal(err)
		}

		// Warm the gap EWMA past FlushInterval: pushes ~400ms apart. The first
		// couple still pay the static window; measure only after warm-up.
		v := 1e9
		push := func() time.Duration {
			s.Set(0, v)
			start := time.Now()
			v += 1e9
			if _, err := readMsg(conn); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		for i := 0; i < 3; i++ {
			push()
			time.Sleep(400 * time.Millisecond)
		}
		// Quiet steady state: each push must arrive far sooner than the static
		// 300ms window would allow.
		for i := 0; i < 3; i++ {
			if lat := push(); lat > 150*time.Millisecond {
				t.Errorf("quiet push %d took %v; adaptive window should flush immediately (static window is %v)",
					i, lat, cfg.FlushInterval)
			}
			time.Sleep(400 * time.Millisecond)
		}
	})
}

// TestFlushWindowOpensOnce: the first held push of a run opens the window
// and the pushes after it ride it. A push stream that keeps coming through
// the window must not push its expiry back: the run reaches the client as
// one frame, one window after its first push.
func TestFlushWindowOpensOnce(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		const window = 150 * time.Millisecond
		cfg := testConfig()
		cfg.Params.Alpha = 0 // freeze widths so every 1e9 jump escapes and pushes
		cfg.FlushInterval = window
		s, addr := listenMode(t, cfg, mode)
		s.SetInitial(0, 0)
		conn := rawDial(t, addr)
		hello(t, conn)
		if err := netproto.Write(conn, subscribeOne(1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil { // initial refresh
			t.Fatal(err)
		}
		// The reply's drain may still hold the connection's drain slot after
		// its frame arrived; a push landing then leaves at once instead of
		// opening the window. Start the run once every queue is idle.
		idle := func() bool {
			s.connMu.RLock()
			defer s.connMu.RUnlock()
			for _, c := range s.conns {
				if c.q.pending() {
					return false
				}
			}
			return true
		}
		for deadline := time.Now().Add(5 * time.Second); !idle(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the subscribe reply's drain never released the connection")
			}
		}

		// Push every 5ms for the first 100ms of the window, far below
		// maxBatch. A window that every push re-armed would close 150ms
		// after the last of them, 250ms after the first.
		start := time.Now()
		pushes := 0
		for v := 1e9; time.Since(start) < 100*time.Millisecond; v += 1e9 {
			s.Set(0, v)
			pushes++
			time.Sleep(5 * time.Millisecond)
		}
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		rb, ok := msg.(*netproto.RefreshBatch)
		if !ok || rb.ID != 0 {
			t.Fatalf("first frame %#v, want a push batch", msg)
		}
		if len(rb.Items) != pushes {
			t.Errorf("the run's %d pushes arrived %d in the first frame, want all", pushes, len(rb.Items))
		}
		if took < window || took > window+60*time.Millisecond {
			t.Errorf("run flushed %v after its first push, want one %v window", took, window)
		}
	})
}

// TestConcurrentSetsShareOneWindow: Sets on two shards pushing to one
// connection at once share its flush window without a server-wide lock. They
// must make progress while the test holds the registry's read side, and the
// connection must still see each key's values in order, every final value,
// and its pushes coalesced into fewer frames than there were pushes.
func TestConcurrentSetsShareOneWindow(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		const sets = 2000
		cfg := testConfig()
		cfg.Params.Alpha = 0 // freeze widths so every 1e9 jump escapes and pushes
		cfg.FlushInterval = 2 * time.Millisecond
		cfg.Shards = 4
		s, addr := listenMode(t, cfg, mode)
		keys := []int64{0, 1}
		for shard.Index(int(keys[1]), s.Shards()) == shard.Index(0, s.Shards()) {
			keys[1]++
		}
		for _, k := range keys {
			s.SetInitial(int(k), 0)
		}
		conn := rawDial(t, addr)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		hello(t, conn)
		if err := netproto.Write(conn, &netproto.SubscribeMulti{ID: 1, Keys: keys}); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil {
			t.Fatal(err)
		}

		type result struct {
			frames, items int
			err           string
		}
		done := make(chan result, 1)
		go func() {
			var r result
			last := map[int64]float64{keys[0]: 0, keys[1]: 0}
			for last[keys[0]] < sets*1e9 || last[keys[1]] < sets*1e9 {
				msg, err := readMsg(conn)
				if err != nil {
					r.err = err.Error()
					break
				}
				rb, ok := msg.(*netproto.RefreshBatch)
				if !ok || rb.ID != 0 {
					r.err = "unexpected frame"
					break
				}
				r.frames++
				r.items += len(rb.Items)
				for _, it := range rb.Items {
					if it.Value <= last[it.Key] {
						r.err = "a key's values arrived out of order"
					}
					last[it.Key] = it.Value
				}
			}
			done <- r
		}()

		// Hold the registry's read side across the first half of the run:
		// the Sets must get past it.
		s.connMu.RLock()
		var progress [2]atomic.Int64
		var pushes atomic.Int64
		var wg sync.WaitGroup
		for i, k := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 1; j <= sets; j++ {
					pushes.Add(int64(s.Set(int(k), float64(j)*1e9)))
					progress[i].Store(int64(j))
				}
			}()
		}
		var p0, p1 int64
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if p0, p1 = progress[0].Load(), progress[1].Load(); p0 >= sets/2 && p1 >= sets/2 {
				break
			}
		}
		s.connMu.RUnlock()
		wg.Wait()
		if p0 < sets/2 || p1 < sets/2 {
			t.Fatalf("Sets stalled behind a reader of the registry: %d and %d of %d done", p0, p1, sets)
		}

		r := <-done
		if r.err != "" {
			t.Fatalf("after %d frames: %s", r.frames, r.err)
		}
		if n := pushes.Load(); n != 2*sets || int64(r.frames) >= n {
			t.Errorf("%d pushes arrived in %d frames (%d items); want %d pushes in fewer frames", n, r.frames, r.items, 2*sets)
		}
	})
}

// BenchmarkSetParallel measures Set from concurrent goroutines over a
// server whose every write pushes: four raw clients each hold all of
// setKeys, and Alpha 0 freezes widths so every distinct value escapes. Run it
// at several -cpu values with -mutexprofile to see which lock the pushes
// wait on:
//
//	go test -run '^$' -bench BenchmarkSetParallel -cpu 1,2,4 ./internal/server
func BenchmarkSetParallel(b *testing.B) {
	const clients, setKeys = 4, 1024
	cfg := testConfig()
	cfg.Params.Alpha = 0
	cfg.FlushInterval = 2 * time.Millisecond
	s := New(cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]int64, setKeys)
	for k := range keys {
		keys[k] = int64(k)
		s.SetInitial(k, 0)
	}
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		for _, m := range []netproto.Message{&netproto.Hello{ID: 1, Version: netproto.Version}, &netproto.SubscribeMulti{ID: 2, Keys: keys}} {
			if err := netproto.Write(conn, m); err != nil {
				b.Fatal(err)
			}
			if _, err := readMsg(conn); err != nil {
				b.Fatal(err)
			}
		}
		go io.Copy(io.Discard, conn)
	}
	var next, pushes atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			// Distinct values 1e9 apart: every Set escapes every holder.
			v := next.Add(1)
			n += s.Set(int(v%setKeys), float64(v)*1e9)
		}
		pushes.Add(int64(n))
	})
	b.ReportMetric(float64(pushes.Load())/float64(b.N), "pushes/set")
}

// settle waits out goroutines of earlier tests still finishing and returns
// the goroutine count once it holds still for 10ms.
func settle() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestListenStartsNoTicker: a server with flush windows and no connections
// runs the accept loop, plus the poller's event loops under that driver, and
// nothing else: no ticker and no writer, so an idle server never wakes.
func TestListenStartsNoTicker(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.ConnMode = mode
		cfg.FlushInterval = 2 * time.Millisecond
		s := New(cfg)
		defer s.Close()
		want, what := 1, "the accept loop"
		if mode == ConnModePoller {
			want = runtime.GOMAXPROCS(0) + 1
			what = "GOMAXPROCS event loops and the accept loop"
		}
		g0 := settle()
		if _, err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("Listen: %v", err)
		}
		if added := settle() - g0; added != want {
			t.Errorf("Listen started %d goroutines with no connections, want %d (%s)", added, want, what)
		}
	})
}
