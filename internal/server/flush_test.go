package server

// Tests of the adaptive per-connection flush window: a deterministic unit
// test of the EWMA/window computation driven by synthetic timestamps, and
// integration tests over real connections showing that a bursty push stream
// coalesces into few RefreshBatch frames while a quiet connection's pushes
// flush immediately, at far less added latency than the static window.

import (
	"net"
	"testing"
	"time"

	"apcache/internal/netproto"
)

// TestFlushWindowAdapts drives observePush with an injected clock (synthetic
// nanosecond timestamps — no real time involved) and checks the derived
// window at both extremes and in between.
func TestFlushWindowAdapts(t *testing.T) {
	const max = 10 * time.Millisecond
	c := &clientConn{}

	// No history: the full static window applies.
	if w := c.flushWindow(max); w != max {
		t.Errorf("cold window = %v, want %v", w, max)
	}
	// FlushInterval 0 disables the window regardless of history.
	if w := c.flushWindow(0); w != 0 {
		t.Errorf("disabled window = %v, want 0", w)
	}

	// Bursty: pushes 100µs apart. EWMA converges to ~100µs, so the window
	// stays within a hair of the full cap.
	now := int64(1_000_000)
	for i := 0; i < 50; i++ {
		c.observePush(now, max)
		now += int64(100 * time.Microsecond)
	}
	bursty := c.flushWindow(max)
	if bursty < max-200*time.Microsecond || bursty > max {
		t.Errorf("bursty window = %v, want ≈%v", bursty, max)
	}

	// Quiet: pushes 50ms apart — beyond the cap. The EWMA crosses it and
	// the window collapses to zero: flush immediately.
	c2 := &clientConn{}
	now = int64(1_000_000)
	for i := 0; i < 50; i++ {
		c2.observePush(now, max)
		now += int64(50 * time.Millisecond)
	}
	if w := c2.flushWindow(max); w != 0 {
		t.Errorf("quiet window = %v, want 0", w)
	}

	// In between: gaps of 4ms against a 10ms cap leave a ~6ms window —
	// clamped to [0, max], monotone in the gap.
	c3 := &clientConn{}
	now = int64(1_000_000)
	for i := 0; i < 50; i++ {
		c3.observePush(now, max)
		now += int64(4 * time.Millisecond)
	}
	mid := c3.flushWindow(max)
	if mid <= 0 || mid >= max {
		t.Errorf("mid window = %v, want in (0, %v)", mid, max)
	}
	if mid < 5*time.Millisecond || mid > 7*time.Millisecond {
		t.Errorf("mid window = %v, want ≈6ms", mid)
	}

	// A connection turning bursty after a quiet phase re-opens its window.
	for i := 0; i < 50; i++ {
		c2.observePush(now, max)
		now += int64(100 * time.Microsecond)
	}
	if w := c2.flushWindow(max); w == 0 {
		t.Errorf("window stayed closed after the connection turned bursty")
	}

	// Idle-then-burst: a single multi-second idle gap is clamped before it
	// enters the EWMA, so the first pushes of the following burst still see
	// an open window (an unclamped gap would close it for dozens of
	// pushes).
	c4 := &clientConn{}
	now = int64(1_000_000)
	for i := 0; i < 10; i++ {
		c4.observePush(now, max)
		now += int64(100 * time.Microsecond)
	}
	now += int64(5 * time.Second) // idle period
	c4.observePush(now, max)      // first push of the new burst
	if w := c4.flushWindow(max); w < max/2 {
		t.Errorf("post-idle window = %v, want ≥%v (idle gap must not close the burst window)", w, max/2)
	}
}

// collectPushFrames reads frames until n pushed refreshes have arrived,
// returning how many frames carried them.
func collectPushFrames(t *testing.T, conn net.Conn, n int) int {
	t.Helper()
	frames, got := 0, 0
	for got < n {
		msg, err := netproto.ReadMsg(conn)
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
		case *netproto.Refresh:
			if m.ID != 0 {
				t.Fatalf("push frame with ID %d", m.ID)
			}
			got++
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
		if err := netproto.Write(conn, &netproto.Subscribe{ID: 1, Key: 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := netproto.ReadMsg(conn); err != nil { // initial refresh
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
		if err := netproto.Write(conn, &netproto.Subscribe{ID: 1, Key: 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := netproto.ReadMsg(conn); err != nil {
			t.Fatal(err)
		}

		// Warm the gap EWMA past FlushInterval: pushes ~400ms apart. The first
		// couple still pay the static window; measure only after warm-up.
		v := 1e9
		push := func() time.Duration {
			s.Set(0, v)
			start := time.Now()
			v += 1e9
			if _, err := netproto.ReadMsg(conn); err != nil {
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
