package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"apcache/internal/core"
	"apcache/internal/netproto"
	"apcache/internal/query"
)

func testConfig() Config {
	return Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         1,
	}
}

func TestNewValidatesParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid params accepted")
		}
	}()
	New(Config{Params: core.Params{Cvr: -1, Cqr: 1}})
}

func TestNewRejectsNegativeWidth(t *testing.T) {
	cfg := testConfig()
	cfg.InitialWidth = -1
	defer func() {
		if recover() == nil {
			t.Fatalf("negative width accepted")
		}
	}()
	New(cfg)
}

// TestNewRejectsNaNWidth: a NaN width must fail at New, not at the first
// subscription, where core.NewController's panic would take the process down
// from a connection's dispatch goroutine.
func TestNewRejectsNaNWidth(t *testing.T) {
	cfg := testConfig()
	cfg.InitialWidth = math.NaN()
	defer func() {
		if recover() == nil {
			t.Fatalf("NaN width accepted")
		}
	}()
	New(cfg)
}

func TestSetWithoutClients(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(0, 5)
	if n := s.Set(0, 100); n != 0 {
		t.Errorf("Set with no clients pushed %d refreshes", n)
	}
	if v, ok := s.Value(0); !ok || v != 100 {
		t.Errorf("Value = %g, %v", v, ok)
	}
	if s.Clients() != 0 {
		t.Errorf("Clients = %d", s.Clients())
	}
}

func TestListenBadAddress(t *testing.T) {
	s := New(testConfig())
	if _, err := s.Listen("256.256.256.256:99999"); err == nil {
		t.Fatalf("bad address accepted")
	}
}

func TestCloseIdempotentAndStopsAccept(t *testing.T) {
	s := New(testConfig())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// New connections must be refused or immediately dropped.
	conn, err := net.DialTimeout("tcp", addr.String(), time.Second)
	if err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := readMsg(conn); err == nil {
			t.Errorf("closed server answered a frame")
		}
		conn.Close()
	}
}

// rawDial speaks the protocol directly to exercise the server's framing
// paths without the client package.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// subscribeOne and readOne are the single-key requests: one-key lists.
func subscribeOne(id uint64, key int64) *netproto.SubscribeMulti {
	return &netproto.SubscribeMulti{ID: id, Keys: []int64{key}}
}

func readOne(id uint64, key int64) *netproto.ReadMulti {
	return &netproto.ReadMulti{ID: id, Keys: []int64{key}}
}

// oneItem returns the item of a one-key request's reply, failing unless msg
// is a RefreshBatch echoing id with exactly one item.
func oneItem(t *testing.T, msg netproto.Message, id uint64) netproto.RefreshItem {
	t.Helper()
	rb, ok := msg.(*netproto.RefreshBatch)
	if !ok || rb.ID != id || len(rb.Items) != 1 {
		t.Fatalf("expected a one-item RefreshBatch with ID %d, got %#v", id, msg)
	}
	return rb.Items[0]
}

func TestRawSubscribeReadFlow(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(2, 40)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)

	if err := netproto.Write(conn, subscribeOne(1, 2)); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	r := oneItem(t, msg, 1)
	if r.Key != 2 || r.Kind != netproto.KindInitial || r.Value != 40 {
		t.Fatalf("subscribe response %#v", msg)
	}
	if r.Lo != 35 || r.Hi != 45 {
		t.Errorf("interval [%g, %g], want [35, 45]", r.Lo, r.Hi)
	}

	if err := netproto.Write(conn, readOne(2, 2)); err != nil {
		t.Fatal(err)
	}
	msg, err = readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if r = oneItem(t, msg, 2); r.Kind != netproto.KindQueryInitiated {
		t.Fatalf("read response %#v", msg)
	}
	// theta=1, alpha=1: the read halves the width to 5.
	if r.Hi-r.Lo != 5 {
		t.Errorf("width after read %g, want 5", r.Hi-r.Lo)
	}
}

func TestRawUnknownKeyError(t *testing.T) {
	s := New(testConfig())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	if err := netproto.Write(conn, readOne(9, 123)); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := msg.(*netproto.Error2)
	if !ok || e.ID != 9 || e.Code != netproto.CodeUnknownKey || e.Key != 123 {
		t.Fatalf("expected unknown-key Error2 with ID 9 for key 123, got %#v", msg)
	}
}

func TestRawPing(t *testing.T) {
	s := New(testConfig())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	if err := netproto.Write(conn, &netproto.Ping{ID: 3}); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := msg.(*netproto.Pong); !ok || p.ID != 3 {
		t.Fatalf("expected Pong 3, got %#v", msg)
	}
}

func TestClientDisconnectReapsSubscriptions(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(0, 10)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	if err := netproto.Write(conn, subscribeOne(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// dropClient leaves the registry before it sweeps the subscriptions, so
	// wait for the sweep itself, not just for Clients to read 0.
	subs := func() int {
		n := 0
		for _, sh := range s.Stats().PerShard {
			n += sh.Subscriptions
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Clients() != 0 || subs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client not reaped")
		}
		time.Sleep(time.Millisecond)
	}
	// After the reap no refreshes are prepared for the dead client.
	s.SetInitial(0, 10)
	if n := s.Set(0, 1e9); n != 0 {
		t.Errorf("Set pushed %d refreshes after disconnect", n)
	}
}

func TestGarbageFrameDisconnects(t *testing.T) {
	s := New(testConfig())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x01}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Clients() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server kept a client that sent garbage")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSetPushesToSubscribedClient(t *testing.T) {
	// Covers the Set push path end-to-end at the protocol level.
	s := New(testConfig())
	s.SetInitial(0, 10)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	if err := netproto.Write(conn, subscribeOne(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
	if n := s.Set(0, 1000); n != 1 {
		t.Fatalf("Set pushed %d refreshes", n)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	// A push of one key is a RefreshBatch of one with ID 0, like any run.
	rb, ok := msg.(*netproto.RefreshBatch)
	if !ok || rb.ID != 0 || len(rb.Items) != 1 || rb.Items[0].Kind != netproto.KindValueInitiated || rb.Items[0].Key != 0 {
		t.Fatalf("push frame %#v", msg)
	}
	if r := rb.Items[0]; r.Value != 1000 || r.Lo > 1000 || r.Hi < 1000 {
		t.Errorf("push carries %g in [%g, %g]", r.Value, r.Lo, r.Hi)
	}
}

func TestSubscribeUnknownKeyAtProtocolLevel(t *testing.T) {
	s := New(testConfig())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	if err := netproto.Write(conn, subscribeOne(4, 77)); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*netproto.Error2); !ok || e.ID != 4 || e.Code != netproto.CodeUnknownKey {
		t.Fatalf("expected unknown-key error frame, got %#v", msg)
	}
}

// TestUnexpectedFrameGetsError: a frame the server does not serve after the
// handshake — a server-to-client frame, or the single-key Read version 8
// retired — is answered Error2{CodeUnsupported}, and the connection keeps
// serving: the next Ping on it is answered.
func TestUnexpectedFrameGetsError(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(0, 5)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	for i, m := range []netproto.Message{
		&netproto.Pong{ID: 1},
		&netproto.Read{ID: 2, Key: 0},
	} {
		if err := netproto.Write(conn, m); err != nil {
			t.Fatal(err)
		}
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := msg.(*netproto.Error2); !ok || e.Code != netproto.CodeUnsupported {
			t.Fatalf("%T: expected unsupported Error2, got %#v", m, msg)
		}
		id := uint64(10 + i)
		if err := netproto.Write(conn, &netproto.Ping{ID: id}); err != nil {
			t.Fatal(err)
		}
		if msg, err := readMsg(conn); err != nil {
			t.Fatal(err)
		} else if p, ok := msg.(*netproto.Pong); !ok || p.ID != id {
			t.Fatalf("after %T: Ping %d answered %#v", m, id, msg)
		}
	}
}

func TestLogfGoesToConfiguredSink(t *testing.T) {
	var got []string
	cfg := testConfig()
	cfg.Logf = func(format string, args ...interface{}) {
		got = append(got, format)
	}
	s := New(cfg)
	s.logf("hello %d", 1)
	if len(got) != 1 {
		t.Errorf("log sink got %v", got)
	}
	// Nil sink must not panic.
	s2 := New(testConfig())
	s2.logf("dropped")
}

// readMsg reads the next frame from r and decodes it through a fresh
// netproto.StreamDecoder, so the message stays valid across later reads. A
// header the decoder refuses is refused before any body is read, and a
// stream that ends between frames is io.EOF.
func readMsg(r io.Reader) (netproto.Message, error) {
	frame := make([]byte, 5, 64) // length and type
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	if n := int(binary.LittleEndian.Uint32(frame)); n > 0 && n <= netproto.MaxFrame {
		frame = slices.Grow(frame, n-1)[:4+n]
		if _, err := io.ReadFull(r, frame[5:]); err != nil {
			return nil, err
		}
	}
	var m netproto.Message
	err := netproto.NewStreamDecoder().Feed(frame, func(got netproto.Message) error { m = got; return nil })
	return m, err
}

// hello performs the handshake on a raw connection.
func hello(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := netproto.Write(conn, &netproto.Hello{ID: 1, Version: netproto.Version}); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := msg.(*netproto.HelloAck); !ok || ack.ID != 1 || ack.Version != netproto.Version {
		t.Fatalf("handshake response %#v", msg)
	}
}

// TestHandshakeRefusal pins the one version check: both connection cores
// answer an old Hello — version 7, whose clients still send the retired
// single-key frames, or version 6 — or any request sent before Hello, with
// Error2{CodeUnsupported} and then close; a newer client's Hello is acked at
// the server's own version.
func TestHandshakeRefusal(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		s, addr := listenMode(t, testConfig(), mode)
		s.SetInitial(0, 5)
		v7, err := netproto.AppendFrame(nil, &netproto.Hello{ID: 7, Version: 7})
		if err != nil {
			t.Fatal(err)
		}
		early, err := netproto.AppendFrame(nil, &netproto.Read{ID: 7, Key: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, first := range []struct {
			what  string
			frame []byte
			id    uint64 // the refusal echoes a Hello's ID
			says  string
		}{
			{"version-7 Hello", v7, 7,
				fmt.Sprintf("protocol version 7 offered, this server speaks only %d", netproto.Version)},
			{"Read", early, 0, "before Hello"},
			// What a version-6 client really sends: an 11-byte body, the batch
			// limit (128) after the version byte. Refused by its version, not
			// dropped as a frame that fails to decode.
			{"version-6 Hello", []byte{12, 0, 0, 0, byte(netproto.THello), 7, 0, 0, 0, 0, 0, 0, 0, 6, 0x80, 0}, 7,
				fmt.Sprintf("protocol version 6 offered, this server speaks only %d", netproto.Version)},
		} {
			conn := rawDial(t, addr)
			if _, err := conn.Write(first.frame); err != nil {
				t.Fatal(err)
			}
			msg, err := readMsg(conn)
			if err != nil {
				t.Fatalf("%s first: %v", first.what, err)
			}
			if e, ok := msg.(*netproto.Error2); !ok || e.Code != netproto.CodeUnsupported || e.ID != first.id || !strings.Contains(e.Msg, first.says) {
				t.Fatalf("%s first: got %#v, want Error2 unsupported with ID %d saying %q", first.what, msg, first.id, first.says)
			}
			if msg, err := readMsg(conn); err != io.EOF {
				t.Fatalf("%s first: after the refusal got %#v, %v; want EOF", first.what, msg, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Clients() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("server kept %d refused connections", s.Clients())
			}
			time.Sleep(time.Millisecond)
		}

		conn := rawDial(t, addr)
		if err := netproto.Write(conn, &netproto.Hello{ID: 9, Version: netproto.Version + 1}); err != nil {
			t.Fatal(err)
		}
		msg, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := msg.(*netproto.HelloAck); !ok || ack.ID != 9 || ack.Version != netproto.Version {
			t.Fatalf("newer Hello: got %#v, want an ack at version %d", msg, netproto.Version)
		}
		// The acked connection serves requests.
		if err := netproto.Write(conn, readOne(10, 0)); err != nil {
			t.Fatal(err)
		}
		if msg, err := readMsg(conn); err != nil {
			t.Fatal(err)
		} else if r := oneItem(t, msg, 10); r.Value != 5 {
			t.Fatalf("read after handshake: %#v", msg)
		}
	})
}

func TestMultiBeforeHandshakeRejected(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(0, 5)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	if err := netproto.Write(conn, &netproto.ReadMulti{ID: 3, Keys: []int64{0}}); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*netproto.Error2); !ok || e.Code != netproto.CodeUnsupported {
		t.Fatalf("expected handshake-required error, got %#v", msg)
	}
}

func TestReadMultiSingleResponseFrame(t *testing.T) {
	s := New(testConfig())
	const keys = 16 // spread across several shards
	for k := 0; k < keys; k++ {
		s.SetInitial(k, float64(k*10))
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)

	want := make([]int64, keys)
	for k := range want {
		want[k] = int64(keys - 1 - k) // deliberately not ascending
	}
	if err := netproto.Write(conn, &netproto.ReadMulti{ID: 5, Keys: want}); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := msg.(*netproto.RefreshBatch)
	if !ok || rb.ID != 5 {
		t.Fatalf("expected RefreshBatch ID 5, got %#v", msg)
	}
	if len(rb.Items) != keys {
		t.Fatalf("%d items, want %d", len(rb.Items), keys)
	}
	for i, it := range rb.Items {
		if it.Key != want[i] {
			t.Errorf("item %d key %d, want %d (request order must be preserved)", i, it.Key, want[i])
		}
		if it.Kind != netproto.KindQueryInitiated {
			t.Errorf("item %d kind %v", i, it.Kind)
		}
		if it.Value != float64(want[i]*10) {
			t.Errorf("item %d value %g, want %g", i, it.Value, float64(want[i]*10))
		}
		if it.Lo > it.Value || it.Hi < it.Value {
			t.Errorf("item %d interval [%g, %g] excludes %g", i, it.Lo, it.Hi, it.Value)
		}
	}
}

// TestSubscribeMultiUnknownKeyWholeRequestErrors: a multi-key request naming
// one unknown key among known ones is refused whole — the typed error names
// the key, and no known key was subscribed or read on the way to finding it.
func TestSubscribeMultiUnknownKeyWholeRequestErrors(t *testing.T) {
	keys := []int64{0, 1, 999, 2}
	for _, req := range []netproto.Message{
		&netproto.ReadMulti{ID: 6, Keys: keys},
		&netproto.SubscribeMulti{ID: 6, Keys: keys},
		&netproto.RegisterQuery{ID: 6, QID: 1, Kind: query.Sum, Delta: 1, Keys: keys},
	} {
		t.Run(strings.TrimPrefix(fmt.Sprintf("%T", req), "*netproto."), func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = 4
			s := New(cfg)
			for k := 0; k < 3; k++ {
				s.SetInitial(k, 1)
			}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			conn := rawDial(t, addr.String())
			hello(t, conn)
			before := s.Stats()
			if err := netproto.Write(conn, req); err != nil {
				t.Fatal(err)
			}
			msg, err := readMsg(conn)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := msg.(*netproto.Error2); !ok || e.ID != 6 || e.Code != netproto.CodeUnknownKey || e.Key != 999 {
				t.Fatalf("expected Error2 ID 6 code unknown-key key 999, got %#v", msg)
			}
			after := s.Stats()
			if !reflect.DeepEqual(after.PerShard, before.PerShard) || after.Queries != 0 {
				t.Errorf("refused request changed the shards: %+v -> %+v (%d queries)", before.PerShard, after.PerShard, after.Queries)
			}
			// No half-subscribed state that pushes to this client.
			if n := s.Set(0, 1e9); n != 0 {
				t.Errorf("refused request left %d live subscriptions", n)
			}
		})
	}
}

func TestWriterCoalescesPushesIntoRefreshBatch(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.FlushInterval = 150 * time.Millisecond
		s, addr := listenMode(t, cfg, mode)
		const keys = 8
		for k := 0; k < keys; k++ {
			s.SetInitial(k, 0)
		}
		conn := rawDial(t, addr)
		hello(t, conn)
		if err := netproto.Write(conn, &netproto.SubscribeMulti{ID: 2, Keys: []int64{0, 1, 2, 3, 4, 5, 6, 7}}); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil {
			t.Fatal(err)
		}
		// Escape every interval in a burst well inside the flush window.
		for k := 0; k < keys; k++ {
			if n := s.Set(k, 1e6); n != 1 {
				t.Fatalf("Set(%d) pushed %d refreshes", k, n)
			}
		}
		// Collect frames until all keys' pushes arrived; the coalescing writer
		// must use fewer frames than pushes (the burst fits one window).
		got := map[int64]bool{}
		frames := 0
		for len(got) < keys {
			msg, err := readMsg(conn)
			if err != nil {
				t.Fatal(err)
			}
			frames++
			switch m := msg.(type) {
			case *netproto.RefreshBatch:
				if m.ID != 0 {
					t.Fatalf("push batch with ID %d", m.ID)
				}
				for _, it := range m.Items {
					if it.Kind != netproto.KindValueInitiated {
						t.Fatalf("push item kind %v", it.Kind)
					}
					got[it.Key] = true
				}
			default:
				t.Fatalf("unexpected frame %#v", msg)
			}
		}
		if frames >= keys {
			t.Errorf("%d pushes arrived in %d frames; expected coalescing", keys, frames)
		}
	})
}

func TestServerStatsPerShard(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	s := New(cfg)
	const keys = 64
	for k := 0; k < keys; k++ {
		s.SetInitial(k, float64(k))
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawDial(t, addr.String())
	hello(t, conn)
	all := make([]int64, keys)
	for k := range all {
		all[k] = int64(k)
	}
	if err := netproto.Write(conn, &netproto.SubscribeMulti{ID: 1, Keys: all}); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Clients != 1 {
		t.Errorf("Clients = %d", st.Clients)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("PerShard has %d entries, want 4", len(st.PerShard))
	}
	var totKeys, totSubs int
	for i, sh := range st.PerShard {
		if sh.Keys == 0 {
			t.Errorf("shard %d hosts no keys; splitmix spread should hit all 4 shards with 64 keys", i)
		}
		totKeys += sh.Keys
		totSubs += sh.Subscriptions
	}
	if totKeys != keys || totSubs != keys {
		t.Errorf("totals keys=%d subs=%d, want %d each", totKeys, totSubs, keys)
	}
}

// TestPushOverflowMergesInsteadOfDropping wedges a subscriber (it never
// reads), floods its keys with escaping updates until the push queue and the
// TCP stream jam, and checks that the overflow is absorbed by the merge
// buffer — counted in Stats — rather than dropped. Once the reader resumes,
// the last refresh it observes for each key must carry an interval that
// contains that key's final value: the union/latest-wins fold preserves
// validity end to end.
func TestPushOverflowMergesInsteadOfDropping(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.Params.Alpha = 0 // freeze widths so every escaping update keeps pushing
		s, addr := listenMode(t, cfg, mode)
		const keys = 4
		final := make(map[int64]float64, keys)
		for k := 0; k < keys; k++ {
			s.SetInitial(k, 0)
		}
		conn := rawDial(t, addr)
		hello(t, conn)
		for k := 0; k < keys; k++ {
			if err := netproto.Write(conn, subscribeOne(uint64(k+1), int64(k))); err != nil {
				t.Fatal(err)
			}
			if _, err := readMsg(conn); err != nil {
				t.Fatal(err)
			}
		}

		// Flood without reading. Every update jumps far outside the current
		// interval, so each Set produces one push. Stop once merges are
		// observed (the queue plus socket buffers must jam first).
		v := 0.0
		for i := 0; i < 500000; i++ {
			v += 1e9 // always escapes, regardless of how wide the interval grew
			k := int64(i % keys)
			s.Set(int(k), v)
			final[k] = v
			if i%1024 == 0 && s.Stats().PushMerges > 0 {
				break
			}
		}
		st := s.Stats()
		if st.PushOverflows == 0 || st.PushMerges == 0 {
			t.Fatalf("no backpressure observed: %+v (flood too small for this socket configuration?)", st)
		}

		// Resume reading: with merging instead of dropping, the stream must
		// end with a refresh per key whose interval contains the final value.
		last := make(map[int64]netproto.RefreshItem, keys)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			done := true
			for k := range final {
				if it, ok := last[k]; !ok || it.Lo > final[k] || final[k] > it.Hi {
					done = false
				}
			}
			if done {
				break
			}
			msg, err := readMsg(conn)
			if err != nil {
				t.Fatalf("stream ended before every key converged (last=%v): %v", last, err)
			}
			if m, ok := msg.(*netproto.RefreshBatch); ok {
				for _, it := range m.Items {
					last[it.Key] = it
				}
			}
		}
	})
}
