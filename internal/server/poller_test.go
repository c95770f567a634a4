package server

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"apcache/internal/netpoll"
	"apcache/internal/netproto"
)

// forEachConnMode runs fn once per connection core, skipping the poller on
// platforms without an implementation. The protocol-level behavior of the
// server must be identical under both cores.
func forEachConnMode(t *testing.T, fn func(t *testing.T, mode string)) {
	t.Helper()
	for _, mode := range []string{ConnModeGoroutine, ConnModePoller} {
		t.Run("connmode="+mode, func(t *testing.T) {
			if mode == ConnModePoller && !netpoll.Supported() {
				t.Skip("poller core unsupported on this platform")
			}
			fn(t, mode)
		})
	}
}

func listenMode(t *testing.T, cfg Config, mode string) (*Server, string) {
	t.Helper()
	cfg.ConnMode = mode
	s := New(cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	if got := s.ConnMode(); got != mode {
		t.Fatalf("ConnMode = %q, want %q", got, mode)
	}
	return s, addr.String()
}

// TestPartialFrameTorture drips an entire session — handshake, subscribes,
// reads and a multi-read — one byte at a time, so nearly every
// poller read wakes with a fragment of a frame. The responses must be
// byte-for-byte what a well-chunked client would get.
func TestPartialFrameTorture(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		s, addr := listenMode(t, testConfig(), mode)
		for k := 0; k < 4; k++ {
			s.SetInitial(k, float64(k*10))
		}
		conn := rawDial(t, addr)

		var wire bytes.Buffer
		reqs := []netproto.Message{
			&netproto.Hello{ID: 1, Version: netproto.Version},
			subscribeOne(2, 0),
			readOne(3, 1),
			&netproto.ReadMulti{ID: 4, Keys: []int64{0, 1, 2, 3}},
			readOne(6, 2),
			&netproto.Ping{ID: 7},
		}
		for _, m := range reqs {
			if err := netproto.Write(&wire, m); err != nil {
				t.Fatal(err)
			}
		}
		writeErr := make(chan error, 1)
		go func() {
			raw := wire.Bytes()
			for i := range raw {
				if _, err := conn.Write(raw[i : i+1]); err != nil {
					writeErr <- err
					return
				}
			}
			writeErr <- nil
		}()

		read := func() netproto.Message {
			t.Helper()
			msg, err := readMsg(conn)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			return msg
		}
		if ack, ok := read().(*netproto.HelloAck); !ok || ack.ID != 1 || ack.Version != netproto.Version {
			t.Fatalf("handshake reply wrong: %#v", ack)
		}
		if r := oneItem(t, read(), 2); r.Kind != netproto.KindInitial || r.Value != 0 {
			t.Fatalf("subscribe reply wrong: %#v", r)
		}
		if r := oneItem(t, read(), 3); r.Kind != netproto.KindQueryInitiated || r.Value != 10 {
			t.Fatalf("read reply wrong: %#v", r)
		}
		rb, ok := read().(*netproto.RefreshBatch)
		if !ok || rb.ID != 4 || len(rb.Items) != 4 {
			t.Fatalf("multi reply wrong: %#v", rb)
		}
		for i, item := range rb.Items {
			if item.Key != int64(i) || item.Value != float64(i*10) {
				t.Errorf("multi item %d: %#v", i, item)
			}
		}
		if r := oneItem(t, read(), 6); r.Value != 20 {
			t.Errorf("second read reply wrong: %#v", r)
		}
		if p, ok := read().(*netproto.Pong); !ok || p.ID != 7 {
			t.Fatalf("final ping reply wrong: %#v", p)
		}
		if err := <-writeErr; err != nil {
			t.Fatalf("dripped write: %v", err)
		}
	})
}

// TestIdleConnSmoke is the CI tier for the event-driven core's headline
// claim: parking a thousand idle connections must cost dramatically less
// memory under the poller (one registered fd and a compact struct per conn)
// than under the goroutine core (a read goroutine's stack per conn on top
// of that; an idle connection has no drainer). BenchmarkIdleConnections
// measures the same thing at 10k connections with a child-process dialer.
func TestIdleConnSmoke(t *testing.T) {
	if !netpoll.Supported() {
		t.Skip("poller core unsupported on this platform")
	}
	const n = 1000
	measure := func(mode string) (perConn float64, goroutines int) {
		cfg := testConfig()
		cfg.ConnMode = mode
		s := New(cfg)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		defer s.Close()
		g0 := runtime.NumGoroutine()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		conns := make([]net.Conn, 0, n)
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for i := 0; i < n; i++ {
			c, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			conns = append(conns, c)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.Clients() != n {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d/%d conns registered", mode, s.Clients(), n)
			}
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		used := int64(m1.HeapInuse+m1.StackInuse) - int64(m0.HeapInuse+m0.StackInuse)
		if used < 0 {
			used = 0
		}
		return float64(used) / n, runtime.NumGoroutine() - g0
	}
	pollerMem, pollerG := measure(ConnModePoller)
	goroMem, goroG := measure(ConnModeGoroutine)
	t.Logf("idle cost per conn: poller %.0f B (%d goroutines), goroutine %.0f B (%d goroutines)",
		pollerMem, pollerG, goroMem, goroG)
	if pollerMem >= goroMem {
		t.Errorf("poller idle memory %.0f B/conn not below goroutine core's %.0f B/conn", pollerMem, goroMem)
	}
	if pollerG >= n {
		t.Errorf("poller core used %d goroutines for %d idle conns", pollerG, n)
	}
	// The baseline count can include goroutines of the previous server that
	// have been joined but are still running off their last instructions, so
	// allow a few stragglers either way.
	if goroG < n-8 || goroG > n+8 {
		t.Errorf("goroutine core used %d goroutines for %d conns, expected 1 per conn", goroG, n)
	}
}

// TestPingAllocBudget enforces the serve path's allocation budget under
// both connection cores: a warmed-up ping round trip costs four small
// allocations (most on the test's own side: the Ping it writes, the frame
// and the decoder it reads with), so the budget of six
// catches any regression that adds per-frame allocation to the server —
// e.g. a raw-conn callback closure built per syscall instead of per
// connection, which alone costs about ten allocations per frame.
func TestPingAllocBudget(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		_, addr := listenMode(t, testConfig(), mode)
		conn := rawDial(t, addr)
		hello(t, conn)
		ping := func(id uint64) {
			if err := netproto.Write(conn, &netproto.Ping{ID: id}); err != nil {
				t.Fatal(err)
			}
			if _, err := readMsg(conn); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			ping(uint64(i)) // warm the pools and the connection's flush state
		}
		const rounds = 2000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			ping(uint64(200 + i))
		}
		runtime.ReadMemStats(&m1)
		perOp := float64(m1.Mallocs-m0.Mallocs) / rounds
		t.Logf("%s: %.2f allocs per ping round trip", mode, perOp)
		if perOp > 6 {
			t.Errorf("%s: %.2f allocs per ping round trip, budget is 6", mode, perOp)
		}
	})
}

// BenchmarkPingRTT measures the raw request/response round trip through
// each connection core with no client-side machinery: one connection, one
// Ping frame out, one Pong frame back.
func BenchmarkPingRTT(b *testing.B) {
	for _, mode := range []string{ConnModeGoroutine, ConnModePoller} {
		b.Run("connmode="+mode, func(b *testing.B) {
			if mode == ConnModePoller && !netpoll.Supported() {
				b.Skip("poller core unsupported on this platform")
			}
			cfg := testConfig()
			cfg.ConnMode = mode
			s := New(cfg)
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if err := netproto.Write(conn, &netproto.Hello{ID: 1, Version: netproto.Version}); err != nil {
				b.Fatal(err)
			}
			if _, err := readMsg(conn); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := netproto.Write(conn, &netproto.Ping{ID: uint64(i)}); err != nil {
					b.Fatal(err)
				}
				if _, err := readMsg(conn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
