package server

import (
	"reflect"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/query"
)

// TestRegisterQueryRefusesLiveQID: a connection owns its standing queries by
// QID, so registering a QID it already has live is refused with an Error2
// and leaves the first query — its answer stream and its member
// subscriptions — as it was; once unregistered, the QID registers again.
func TestRegisterQueryRefusesLiveQID(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	s, addr := listenMode(t, cfg, ConnModeGoroutine)
	for k := 0; k < 3; k++ {
		s.SetInitial(k, 1)
	}
	conn := rawDial(t, addr)
	hello(t, conn)
	call := func(m netproto.Message) netproto.Message {
		t.Helper()
		if err := netproto.Write(conn, m); err != nil {
			t.Fatal(err)
		}
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	const delta = 2
	if u, ok := call(&netproto.RegisterQuery{ID: 2, QID: 9, Kind: query.Sum, Delta: delta, Keys: []int64{0, 1}}).(*netproto.QueryUpdate); !ok || u.ID != 2 || u.QID != 9 {
		t.Fatalf("first registration acked with %#v", u)
	}
	before := s.Stats()

	msg := call(&netproto.RegisterQuery{ID: 3, QID: 9, Kind: query.Max, Delta: 8, Keys: []int64{2}})
	if e, ok := msg.(*netproto.Error2); !ok || e.ID != 3 || e.Code != netproto.CodeUnsupported {
		t.Fatalf("re-registering a live QID got %#v, want Error2 unsupported with ID 3", msg)
	}
	if after := s.Stats(); after.Queries != 1 || !reflect.DeepEqual(after.PerShard, before.PerShard) {
		t.Errorf("the refusal changed the server: %d queries, shards %+v -> %+v", after.Queries, before.PerShard, after.PerShard)
	}
	// The first query still answers: SUM 1+1 = 2 moves to 101, past its
	// envelope, and the pushed answer is the first query's, delta wide.
	s.Set(0, 100)
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := msg.(*netproto.QueryUpdate)
	if !ok || u.ID != 0 || u.QID != 9 || u.Lo > 101 || u.Hi < 101 || u.Hi-u.Lo > delta {
		t.Fatalf("after the refusal the first query pushed %#v, want QID 9 around 101 within %d", u, delta)
	}

	if err := netproto.Write(conn, &netproto.UnregisterQuery{ID: 4, QID: 9}); err != nil {
		t.Fatal(err)
	}
	if p, ok := call(&netproto.Ping{ID: 5}).(*netproto.Pong); !ok || p.ID != 5 {
		t.Fatalf("Ping after the unregister answered %#v", p)
	}
	if n := s.Stats().Queries; n != 0 {
		t.Fatalf("Queries after UnregisterQuery = %d, want 0", n)
	}
	if u, ok := call(&netproto.RegisterQuery{ID: 6, QID: 9, Kind: query.Max, Delta: 8, Keys: []int64{2}}).(*netproto.QueryUpdate); !ok || u.ID != 6 || u.QID != 9 {
		t.Fatalf("re-registering an unregistered QID got %#v, want its ack", u)
	}
}

// TestRegisterQueryRacingTeardown: a registration the server dispatches
// while it drops the connection either lands before the drop, and the drop
// reaps it, or finds the connection gone and subscribes nothing. Either way
// no query outlives its connection and no shard keeps a subscription under
// its cache ID. Shutdown is the path that drops a connection while one of
// its requests runs, so each round races a registration of members on every
// shard against Close.
func TestRegisterQueryRacingTeardown(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.Shards = 4
		keys := make([]int64, 64)
		for k := range keys {
			keys[k] = int64(k)
		}
		for round := 0; round < 20; round++ {
			cfg.ConnMode = mode
			s := New(cfg)
			for _, k := range keys {
				s.SetInitial(int(k), float64(k))
			}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn := rawDial(t, addr.String())
			var frames []byte
			for _, m := range []netproto.Message{
				&netproto.Hello{ID: 1, Version: netproto.Version},
				&netproto.RegisterQuery{ID: 2, QID: 1, Kind: query.Sum, Delta: 8, Keys: keys},
				&netproto.RegisterQuery{ID: 3, QID: 2, Kind: query.Max, Delta: 8, Keys: keys},
			} {
				if frames, err = netproto.AppendFrame(frames, m); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Duration(round%5) * 50 * time.Microsecond)
			s.Close()
			st := s.Stats()
			if st.Queries != 0 {
				t.Fatalf("round %d: %d standing queries outlived their connection", round, st.Queries)
			}
			for i, sh := range st.PerShard {
				if sh.Subscriptions != 0 {
					t.Fatalf("round %d: shard %d keeps %d subscriptions after the connection's teardown", round, i, sh.Subscriptions)
				}
			}
			conn.Close()
		}
	})
}
