package client

import (
	"math"
	"net"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/query"
)

// newHelloCostStub is a raw server that advertises an arbitrary refresh
// cost in its HelloAck — the "slow refresh" deployments the adaptive ramp
// must adjust to — and answers Pings so the connection stays healthy.
func newHelloCostStub(t *testing.T, cost time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					msg, err := netproto.ReadMsg(conn)
					if err != nil {
						return
					}
					switch m := msg.(type) {
					case *netproto.Hello:
						netproto.Write(conn, &netproto.HelloAck{
							ID: m.ID, Version: netproto.Version,
							MaxBatch: m.MaxBatch, CqrCost: uint64(cost),
						})
					case *netproto.Ping:
						netproto.Write(conn, &netproto.Pong{ID: m.ID})
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRampUsesAdvertisedCost checks the adaptive ramp divides the smoothed
// RTT by the server's measured refresh cost instead of the modeled default:
// against a server advertising slow (10ms) refreshes, a 1ms-RTT link must
// stay near the paper-minimal sequence, where the 100µs default would have
// slammed the ramp to its cap.
func TestRampUsesAdvertisedCost(t *testing.T) {
	addr := newHelloCostStub(t, 10*time.Millisecond)
	c := dialCfg(t, addr, Config{CacheSize: 4})
	if got := c.Stats().ServerCqrCost; got != 10*time.Millisecond {
		t.Fatalf("ServerCqrCost = %v, want 10ms", got)
	}
	c.SeedSmoothedRTT(time.Millisecond)
	if got, want := c.ResolvedRamp(), 1.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("ramp with advertised 10ms cost = %g, want %g", got, want)
	}
}

// TestRampDefaultCostWithoutAdvertisement pins the fallback: a server that
// advertises no measurement (CqrCost 0) leaves the client on DefaultCqrCost,
// under which a 1ms RTT clamps the ramp to MaxAdaptiveRamp.
func TestRampDefaultCostWithoutAdvertisement(t *testing.T) {
	addr := newHelloCostStub(t, 0)
	c := dialCfg(t, addr, Config{CacheSize: 4})
	if got := c.Stats().ServerCqrCost; got != 0 {
		t.Fatalf("ServerCqrCost = %v, want 0", got)
	}
	c.SeedSmoothedRTT(time.Millisecond)
	if got := c.ResolvedRamp(); got != MaxAdaptiveRamp {
		t.Errorf("ramp without advertisement = %g, want clamp at %g", got, MaxAdaptiveRamp)
	}
}

// TestConfiguredCostBeatsAdvertised pins the precedence: an explicit
// Config.CqrCost is an operator decision and the server's advertisement
// must not override it.
func TestConfiguredCostBeatsAdvertised(t *testing.T) {
	addr := newHelloCostStub(t, 10*time.Millisecond)
	c := dialCfg(t, addr, Config{CacheSize: 4, CqrCost: time.Millisecond})
	c.SeedSmoothedRTT(time.Millisecond)
	if got, want := c.ResolvedRamp(), 2.0; got != want {
		t.Errorf("ramp with configured 1ms cost = %g, want %g (advertised 10ms ignored)", got, want)
	}
}

// TestRampBeforeFirstRTTSample: with no RTT sample the ramp stays at
// query.DefaultRamp whatever the advertised cost.
func TestRampBeforeFirstRTTSample(t *testing.T) {
	addr := newHelloCostStub(t, 10*time.Millisecond)
	c := dialCfg(t, addr, Config{CacheSize: 4})
	c.SeedSmoothedRTT(0)
	if got := c.ResolvedRamp(); got != query.DefaultRamp {
		t.Errorf("ramp before first RTT sample = %g, want %g", got, query.DefaultRamp)
	}
}

// TestServerMeasuredCostReachesSecondClient closes the loop end to end over
// a real server: reads served to one client produce a measurement that the
// next client's handshake picks up and feeds into its ramp.
func TestServerMeasuredCostReachesSecondClient(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(1, 10)
	a := dial(t, addr, 4)
	for i := 0; i < 4; i++ {
		if _, err := a.ReadExact(1); err != nil {
			t.Fatal(err)
		}
	}
	b := dial(t, addr, 4)
	cost := b.Stats().ServerCqrCost
	if cost <= 0 {
		t.Fatalf("second client received no advertised cost after reads were served")
	}
	// With an RTT pinned far above the measured cost the ramp clamps; far
	// below, it stays paper-minimal — proving the advertised value, not
	// the static default, is the denominator.
	b.SeedSmoothedRTT(1000 * cost)
	if got := b.ResolvedRamp(); got != MaxAdaptiveRamp {
		t.Errorf("ramp at RTT >> advertised cost = %g, want %g", got, MaxAdaptiveRamp)
	}
	// Fast machines can measure a sub-microsecond cost, where cost/1000
	// truncates to 0 and would read as "no RTT sample yet"; clamp to 1ns.
	tiny := cost / 1000
	if tiny <= 0 {
		tiny = time.Nanosecond
	}
	b.SeedSmoothedRTT(tiny)
	if got := b.ResolvedRamp(); got >= 1.1 {
		t.Errorf("ramp at RTT << advertised cost = %g, want near 1", got)
	}
}

// newMidConnCostStub is a raw server that advertises no cost at the
// handshake and instead piggybacks one on the RefreshBatch answering each
// ReadMulti — the mid-connection re-advertisement a long-lived client must
// pick up.
func newMidConnCostStub(t *testing.T, cost time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					msg, err := netproto.ReadMsg(conn)
					if err != nil {
						return
					}
					switch m := msg.(type) {
					case *netproto.Hello:
						netproto.Write(conn, &netproto.HelloAck{
							ID: m.ID, Version: netproto.Version, MaxBatch: m.MaxBatch,
						})
					case *netproto.ReadMulti:
						rb := &netproto.RefreshBatch{ID: m.ID, CqrCost: uint64(cost)}
						for _, k := range m.Keys {
							rb.Items = append(rb.Items, netproto.RefreshItem{
								Key: k, Kind: netproto.KindQueryInitiated,
								Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2,
							})
						}
						netproto.Write(conn, rb)
					case *netproto.Ping:
						netproto.Write(conn, &netproto.Pong{ID: m.ID})
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestMidConnectionAdvertUpdatesRamp: a cost advertised on a RefreshBatch
// mid-connection replaces the handshake-time value (here: none) as the
// ramp's denominator.
func TestMidConnectionAdvertUpdatesRamp(t *testing.T) {
	addr := newMidConnCostStub(t, 10*time.Millisecond)
	c := dialCfg(t, addr, Config{CacheSize: 4})
	if got := c.Stats().ServerCqrCost; got != 0 {
		t.Fatalf("ServerCqrCost = %v before any advertisement, want 0", got)
	}
	if _, err := c.ReadMulti([]int{1, 2}); err != nil {
		t.Fatalf("ReadMulti: %v", err)
	}
	if got := c.Stats().ServerCqrCost; got != 10*time.Millisecond {
		t.Fatalf("ServerCqrCost after piggybacked advert = %v, want 10ms", got)
	}
	c.SeedSmoothedRTT(time.Millisecond)
	if got, want := c.ResolvedRamp(), 1.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("ramp with mid-connection 10ms cost = %g, want %g", got, want)
	}
}

// TestConfiguredCostBeatsMidConnectionAdvert: the precedence that holds at
// the handshake holds for re-advertisements too — an explicit Config.CqrCost
// is never overridden by the server.
func TestConfiguredCostBeatsMidConnectionAdvert(t *testing.T) {
	addr := newMidConnCostStub(t, 10*time.Millisecond)
	c := dialCfg(t, addr, Config{CacheSize: 4, CqrCost: time.Millisecond})
	if _, err := c.ReadMulti([]int{1}); err != nil {
		t.Fatalf("ReadMulti: %v", err)
	}
	// The advertisement is still recorded (observable in Stats)...
	if got := c.Stats().ServerCqrCost; got != 10*time.Millisecond {
		t.Fatalf("ServerCqrCost = %v, want 10ms", got)
	}
	// ...but the configured cost drives the ramp: 1 + 1ms/1ms = 2.
	c.SeedSmoothedRTT(time.Millisecond)
	if got, want := c.ResolvedRamp(), 2.0; got != want {
		t.Errorf("ramp with configured 1ms cost = %g, want %g (advert ignored)", got, want)
	}
}
