// Package client's tests double as the integration tests of the networked
// deployment: a real server and real clients over loopback TCP.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/core"
	"apcache/internal/netproto"
	"apcache/internal/server"
	"apcache/internal/workload"
)

func newServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	return newServerMode(t, "")
}

func newServerMode(t *testing.T, connMode string) (*server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         1,
		ConnMode:     connMode,
	})
	if connMode != "" && srv.ConnMode() != connMode {
		t.Skipf("conn mode %q unsupported on this platform", connMode)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// forEachConnMode runs fn against a server under each connection core. The
// client must be unable to tell the cores apart, so the lifecycle tests —
// push delivery, close, server-side teardown — run under both.
func forEachConnMode(t *testing.T, fn func(t *testing.T, mode string)) {
	t.Helper()
	for _, mode := range []string{server.ConnModeGoroutine, server.ConnModePoller} {
		t.Run("connmode="+mode, func(t *testing.T) {
			fn(t, mode)
		})
	}
}

// readMsg reads the next frame a scripted peer receives and decodes it
// through a fresh netproto.StreamDecoder, so the message stays valid across
// later reads. A stream that ends between frames is io.EOF.
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

func dial(t *testing.T, addr string, size int) *Client {
	t.Helper()
	c, err := Dial(addr, size)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSubscribeInstallsInterval(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 100)
	c := dial(t, addr, 10)
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	iv, ok := c.Get(0)
	if !ok {
		t.Fatalf("no cached interval after subscribe")
	}
	if !iv.Valid(100) {
		t.Errorf("interval %v invalid for 100", iv)
	}
	if iv.Width() != 10 {
		t.Errorf("width %g, want 10", iv.Width())
	}
}

func TestSubscribeUnknownKey(t *testing.T) {
	_, addr := newServer(t)
	c := dial(t, addr, 10)
	if err := c.Subscribe(42); err == nil {
		t.Fatalf("Subscribe to unknown key succeeded")
	}
}

func TestValueInitiatedPush(t *testing.T) {
	forEachConnMode(t, testValueInitiatedPush)
}

func testValueInitiatedPush(t *testing.T, mode string) {
	srv, addr := newServerMode(t, mode)
	srv.SetInitial(0, 100)
	c := dial(t, addr, 10)
	if err := c.Subscribe(0); err != nil {
		t.Fatal(err)
	}
	// In-interval update: no push.
	if n := srv.Set(0, 104); n != 0 {
		t.Fatalf("in-interval update pushed %d refreshes", n)
	}
	// Escape: exactly one push, eventually visible in the local cache.
	if n := srv.Set(0, 200); n != 1 {
		t.Fatalf("escape pushed %d refreshes, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		iv, ok := c.Get(0)
		if ok && iv.Valid(200) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push never arrived; cached %v", iv)
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Stats()
	if st.ValueRefreshes != 1 {
		t.Errorf("client counted %d VIRs, want 1", st.ValueRefreshes)
	}
}

func TestReadExact(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(3, 77)
	c := dial(t, addr, 10)
	v, err := c.ReadExact(3)
	if err != nil {
		t.Fatalf("ReadExact: %v", err)
	}
	if v != 77 {
		t.Errorf("value %g, want 77", v)
	}
	// The accompanying interval lands in the cache.
	iv, ok := c.Get(3)
	if !ok || !iv.Valid(77) {
		t.Errorf("interval after read: %v %v", iv, ok)
	}
	if c.Stats().QueryRefreshes != 1 {
		t.Errorf("QIR count %d, want 1", c.Stats().QueryRefreshes)
	}
}

func TestReadUnknownKey(t *testing.T) {
	_, addr := newServer(t)
	c := dial(t, addr, 10)
	if _, err := c.ReadExact(9); err == nil {
		t.Fatalf("ReadExact of unknown key succeeded")
	}
}

func TestPing(t *testing.T) {
	_, addr := newServer(t)
	c := dial(t, addr, 10)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestQueryThroughNetwork(t *testing.T) {
	srv, addr := newServer(t)
	for k, v := range []float64{10, 20, 30} {
		srv.SetInitial(k, v)
	}
	c := dial(t, addr, 10)
	for k := 0; k < 3; k++ {
		if err := c.Subscribe(k); err != nil {
			t.Fatal(err)
		}
	}
	// Loose constraint: answered from cache (3 intervals of width 10 sum
	// to width 30).
	ans, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0, 1, 2}, Delta: 50})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(ans.Refreshed) != 0 {
		t.Errorf("loose query refreshed %v", ans.Refreshed)
	}
	if !ans.Result.Valid(60) {
		t.Errorf("result %v missing true sum 60", ans.Result)
	}
	// Exact constraint: everything fetched; answer exact.
	ans, err = c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0, 1, 2}, Delta: 0})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 60 {
		t.Errorf("exact query result %v, want [60, 60]", ans.Result)
	}
}

// TestQueryRefusesMalformedQuery: Query and QueryCtx return an error for a
// query of no keys, of a kind outside SUM..AVG or of a negative or NaN Delta,
// as WatchQuery does, instead of panicking or fetching it exactly, and the
// connection stays usable. A Delta of +Inf is valid.
func TestQueryRefusesMalformedQuery(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 10)
	c := dial(t, addr, 10)
	for _, q := range []workload.Query{
		{Kind: workload.Sum},
		{Kind: workload.Max, Keys: []int{}},
		{Kind: -1, Keys: []int{0}},
		{Kind: workload.Avg + 1, Keys: []int{0}},
		{Kind: workload.Sum, Keys: []int{0}, Delta: math.NaN()},
		{Kind: workload.Sum, Keys: []int{0}, Delta: -1},
		{Kind: workload.Max, Keys: []int{0}, Delta: math.Inf(-1)},
	} {
		if _, err := c.Query(q); err == nil {
			t.Errorf("Query(%+v) answered", q)
		}
		if _, err := c.QueryCtx(context.Background(), q); err == nil {
			t.Errorf("QueryCtx(%+v) answered", q)
		}
	}
	if st := c.Stats(); st.QueryRefreshes != 0 {
		t.Errorf("the refused queries fetched %d keys", st.QueryRefreshes)
	}
	if _, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0}, Delta: math.Inf(1)}); err != nil {
		t.Errorf("Query with an infinite Delta: %v", err)
	}
	ans, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0}, Delta: 0})
	if err != nil || ans.Result.Lo != 10 {
		t.Fatalf("Query after the refusals: %v, %v", ans.Result, err)
	}
}

func TestUnsubscribeStopsPushes(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 0)
	c := dial(t, addr, 10)
	if err := c.Subscribe(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(0); err != nil {
		t.Fatal(err)
	}
	// Allow the unsubscribe to land; pushes racing ahead of it may
	// legitimately re-install the entry, so the contract under test is
	// only that the server eventually stops pushing.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Set(0, 1e9) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still pushing after unsubscribe")
		}
		time.Sleep(time.Millisecond)
		srv.SetInitial(0, 0)
	}
	// Once quiesced, a further escape generates no refresh.
	srv.SetInitial(0, 0)
	if n := srv.Set(0, 1e9); n != 0 {
		t.Errorf("server pushed %d refreshes after unsubscribe", n)
	}
}

func TestMultipleClientsIndependentWidths(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 100)
	c1 := dial(t, addr, 10)
	c2 := dial(t, addr, 10)
	if err := c1.Subscribe(0); err != nil {
		t.Fatal(err)
	}
	if err := c2.Subscribe(0); err != nil {
		t.Fatal(err)
	}
	if srv.Clients() != 2 {
		t.Fatalf("Clients = %d", srv.Clients())
	}
	// c1 reads repeatedly: its subscription's width shrinks; c2's stays.
	for i := 0; i < 3; i++ {
		if _, err := c1.ReadExact(0); err != nil {
			t.Fatal(err)
		}
	}
	iv1, _ := c1.Get(0)
	iv2, _ := c2.Get(0)
	if iv1.Width() >= iv2.Width() {
		t.Errorf("c1 width %g not narrower than c2 width %g after reads", iv1.Width(), iv2.Width())
	}
}

func TestConcurrentReads(t *testing.T) {
	srv, addr := newServer(t)
	for k := 0; k < 8; k++ {
		srv.SetInitial(k, float64(k*10))
	}
	c := dial(t, addr, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				v, err := c.ReadExact(g)
				if err != nil {
					errs <- err
					return
				}
				if v != float64(g*10) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent read: %v", err)
	}
}

func TestUpdatesDuringQueries(t *testing.T) {
	// Stress: a writer goroutine updates while clients query; intervals
	// must never yield answers excluding the exact value at fetch time.
	srv, addr := newServer(t)
	srv.SetInitial(0, 0)
	c := dial(t, addr, 4)
	if err := c.Subscribe(0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			v += 1
			srv.Set(0, v)
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := c.ReadExact(0); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestClosedClientErrors(t *testing.T) {
	forEachConnMode(t, testClosedClientErrors)
}

func testClosedClientErrors(t *testing.T, mode string) {
	_, addr := newServerMode(t, mode)
	c := dial(t, addr, 4)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Subscribe(0); err == nil {
		t.Errorf("Subscribe after close succeeded")
	}
	if _, err := c.ReadExact(0); err == nil {
		t.Errorf("ReadExact after close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	forEachConnMode(t, testServerCloseUnblocksClients)
}

func testServerCloseUnblocksClients(t *testing.T, mode string) {
	srv, addr := newServerMode(t, mode)
	srv.SetInitial(0, 1)
	c := dial(t, addr, 4)
	if err := c.Subscribe(0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The next request must fail rather than hang.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.ReadExactCtx(ctx, 0); err == nil {
		t.Errorf("read against closed server succeeded")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 4); err == nil {
		t.Errorf("Dial to dead port succeeded")
	}
}

func TestEndToEndQuerySoundnessAfterChurn(t *testing.T) {
	// Full-system check: drive real updates through the server while two
	// clients query concurrently, then quiesce and verify every aggregate
	// against server-side ground truth.
	srv, addr := newServer(t)
	const keys = 12
	values := make([]float64, keys)
	for k := 0; k < keys; k++ {
		values[k] = float64(k * 10)
		srv.SetInitial(k, values[k])
	}
	c1 := dial(t, addr, keys)
	c2 := dial(t, addr, keys)
	for k := 0; k < keys; k++ {
		if err := c1.Subscribe(k); err != nil {
			t.Fatal(err)
		}
		if err := c2.Subscribe(k); err != nil {
			t.Fatal(err)
		}
	}

	// Churn phase: updates and queries interleave.
	rng := rand.New(rand.NewSource(13))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(14))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := wrng.Intn(keys)
			values[k] += wrng.Float64()*20 - 10
			srv.Set(k, values[k])
		}
	}()
	for i := 0; i < 30; i++ {
		q := workload.Query{
			Kind:  workload.Sum,
			Keys:  []int{rng.Intn(keys), (rng.Intn(keys-1) + 1 + rng.Intn(keys)) % keys},
			Delta: rng.Float64() * 100,
		}
		if q.Keys[0] == q.Keys[1] {
			q.Keys = q.Keys[:1]
		}
		if _, err := c1.Query(q); err != nil {
			t.Fatalf("churn query: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesce: let in-flight pushes drain.
	time.Sleep(100 * time.Millisecond)

	// Verification phase: no more updates; answers must bound the truth.
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(keys-1) + 1
		perm := rng.Perm(keys)[:n]
		kind := []workload.AggKind{workload.Sum, workload.Max, workload.Min, workload.Avg}[trial%4]
		delta := rng.Float64() * 50
		cli := c1
		if trial%2 == 1 {
			cli = c2
		}
		ans, err := cli.Query(workload.Query{Kind: kind, Keys: perm, Delta: delta})
		if err != nil {
			t.Fatalf("verify query: %v", err)
		}
		var truth float64
		switch kind {
		case workload.Sum, workload.Avg:
			for _, k := range perm {
				truth += values[k]
			}
			if kind == workload.Avg {
				truth /= float64(n)
			}
		case workload.Max:
			truth = math.Inf(-1)
			for _, k := range perm {
				truth = math.Max(truth, values[k])
			}
		case workload.Min:
			truth = math.Inf(1)
			for _, k := range perm {
				truth = math.Min(truth, values[k])
			}
		}
		if truth < ans.Result.Lo-1e-6 || truth > ans.Result.Hi+1e-6 {
			t.Fatalf("trial %d: %v over %v answer %v excludes truth %g", trial, kind, perm, ans.Result, truth)
		}
		if ans.Result.Width() > delta+1e-9 {
			t.Fatalf("trial %d: width %g > delta %g", trial, ans.Result.Width(), delta)
		}
	}
}

func dialCfg(t *testing.T, addr string, cfg Config) *Client {
	t.Helper()
	c, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// ackStub is a peer that speaks the frame format but acks every Hello at
// version ver — or, with ver 0, refuses it the way a current server refuses
// an old client. It counts the handshakes it saw.
func ackStub(t *testing.T, ver uint8) (addr string, hellos *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hellos = new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				msg, err := readMsg(conn)
				h, ok := msg.(*netproto.Hello)
				if err != nil || !ok {
					return
				}
				hellos.Add(1)
				if ver == 0 {
					netproto.Write(conn, &netproto.Error2{ID: h.ID, Code: netproto.CodeUnsupported, Msg: "no"})
					return
				}
				netproto.Write(conn, &netproto.HelloAck{ID: h.ID, Version: ver})
				readMsg(conn) // hold the stream open until the client hangs up
			}()
		}
	}()
	return ln.Addr().String(), hellos
}

// TestDialRefusedByOtherVersion pins the client half of the one version
// check: a peer that refuses Hello, or acks any version but the client's own
// (older or newer), fails Dial with the typed refusal.
func TestDialRefusedByOtherVersion(t *testing.T) {
	for _, ver := range []uint8{0, netproto.Version - 1, netproto.Version + 1} {
		addr, hellos := ackStub(t, ver)
		c, err := DialConfig(addr, Config{CacheSize: 4, Timeout: 5 * time.Second})
		if err == nil {
			c.Close()
			t.Fatalf("stub version %d: Dial succeeded", ver)
		}
		if !errors.Is(err, aperrs.ErrHandshakeRefused) {
			t.Errorf("stub version %d: Dial error %v, want ErrHandshakeRefused match", ver, err)
		}
		if got := hellos.Load(); got != 1 {
			t.Errorf("stub version %d: saw %d Hellos, want 1", ver, got)
		}
	}
}

func TestSubscribeMultiInstallsAll(t *testing.T) {
	srv, addr := newServer(t)
	const keys = 300 // forces chunking past maxBatch
	want := make([]int, keys)
	for k := 0; k < keys; k++ {
		want[k] = k
		srv.SetInitial(k, float64(k))
	}
	c := dialCfg(t, addr, Config{CacheSize: keys})
	if err := c.SubscribeMulti(want); err != nil {
		t.Fatalf("SubscribeMulti: %v", err)
	}
	for k := 0; k < keys; k++ {
		iv, ok := c.Get(k)
		if !ok || !iv.Valid(float64(k)) {
			t.Fatalf("key %d: cached %v %v", k, iv, ok)
		}
	}
}

func TestSubscribeMultiUnknownKey(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	c := dial(t, addr, 10)
	if err := c.SubscribeMulti([]int{0, 42}); err == nil {
		t.Fatalf("SubscribeMulti with unknown key succeeded")
	}
}

func TestReadMultiInstallsIntervals(t *testing.T) {
	srv, addr := newServer(t)
	for k := 0; k < 5; k++ {
		srv.SetInitial(k, float64(k*2))
	}
	c := dial(t, addr, 10)
	vals, err := c.ReadMulti([]int{4, 0, 2})
	if err != nil {
		t.Fatalf("ReadMulti: %v", err)
	}
	if vals[0] != 8 || vals[1] != 0 || vals[2] != 4 {
		t.Errorf("values %v, want [8 0 4]", vals)
	}
	if st := c.Stats(); st.QueryRefreshes != 3 {
		t.Errorf("QIR count %d, want 3", st.QueryRefreshes)
	}
	for _, k := range []int{0, 2, 4} {
		if iv, ok := c.Get(k); !ok || !iv.Valid(float64(k*2)) {
			t.Errorf("key %d interval %v %v", k, iv, ok)
		}
	}
}

func TestQuerySingleRoundTrip(t *testing.T) {
	// The acceptance property of the batched protocol: a bounded-aggregate
	// query refining K keys costs one request frame and one response frame,
	// not K round trips.
	srv, addr := newServer(t)
	const keys = 24
	all := make([]int, keys)
	var sum float64
	for k := 0; k < keys; k++ {
		all[k] = k
		srv.SetInitial(k, float64(k))
		sum += float64(k)
	}
	c := dial(t, addr, keys)
	if err := c.SubscribeMulti(all); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	ans, err := c.Query(workload.Query{Kind: workload.Sum, Keys: all, Delta: 0})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != sum {
		t.Fatalf("result %v, want exact %g", ans.Result, sum)
	}
	if len(ans.Refreshed) != keys {
		t.Fatalf("refreshed %d keys, want all %d", len(ans.Refreshed), keys)
	}
	after := c.Stats()
	if sent := after.FramesSent - before.FramesSent; sent != 1 {
		t.Errorf("query refining %d keys sent %d frames, want 1 (single ReadMulti)", keys, sent)
	}
	if recv := after.FramesReceived - before.FramesReceived; recv != 1 {
		t.Errorf("query received %d frames, want 1 (single RefreshBatch)", recv)
	}
}

func TestQueryErrorShortCircuits(t *testing.T) {
	// After the first fetch error the query must stop issuing reads for the
	// remaining keys instead of burning a timeout per key: the one ReadMulti
	// fails as a whole, and nothing is fetched around it.
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	srv.SetInitial(2, 3) // key 1 is unknown: its fetch fails
	c := dial(t, addr, 10)
	before := c.Stats().FramesSent
	_, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0, 1, 2}, Delta: 0})
	if !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Fatalf("query over unknown key: %v, want ErrUnknownKey match", err)
	}
	st := c.Stats()
	if st.QueryRefreshes != 0 || st.FramesSent-before != 1 {
		t.Errorf("failed query counted %d refreshes over %d frames, want 0 over 1 (no fetches past the error)",
			st.QueryRefreshes, st.FramesSent-before)
	}
}

// stubServer speaks raw netproto for timeout tests: it acks the handshake,
// answers ReadMulti frames only after being released, and Pongs immediately.
type stubServer struct {
	ln       net.Listener
	release  chan struct{}
	accepted chan net.Conn
}

func newStubServer(t *testing.T) (*stubServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, release: make(chan struct{}), accepted: make(chan net.Conn, 1)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.accepted <- conn
		for {
			msg, err := readMsg(conn)
			if err != nil {
				conn.Close()
				return
			}
			switch m := msg.(type) {
			case *netproto.Hello:
				netproto.Write(conn, &netproto.HelloAck{ID: m.ID, Version: netproto.Version})
			case *netproto.Ping:
				netproto.Write(conn, &netproto.Pong{ID: m.ID})
			case *netproto.ReadMulti:
				go func(id uint64, key int64) {
					<-s.release
					netproto.Write(conn, &netproto.RefreshBatch{ID: id, Items: []netproto.RefreshItem{{
						Key: key, Kind: netproto.KindQueryInitiated,
						Value: 42, Lo: 41, Hi: 43, OriginalWidth: 2,
					}}})
				}(m.ID, m.Keys[0])
			}
		}
	}()
	return s, ln.Addr().String()
}

// TestReadMultiAcrossChunks: a read spanning three chunks gets every value
// back in key order — each written in place by the read loop into its
// chunk's slice of the result — and counts one query refresh per key.
func TestReadMultiAcrossChunks(t *testing.T) {
	srv, addr := newServer(t)
	const n = 300
	keys := make([]int, n)
	for k := 0; k < n; k++ {
		srv.SetInitial(k, float64(k)*1.5)
		keys[k] = n - 1 - k // descending, so a value read by position shows
	}
	c := dialCfg(t, addr, Config{CacheSize: 2 * n})
	before := c.Stats().QueryRefreshes
	vals, err := c.ReadMulti(keys)
	if err != nil {
		t.Fatalf("ReadMulti: %v", err)
	}
	for i, k := range keys {
		if vals[i] != float64(k)*1.5 {
			t.Fatalf("value %d (key %d) = %g, want %g", i, k, vals[i], float64(k)*1.5)
		}
	}
	if got := c.Stats().QueryRefreshes - before; got != n {
		t.Errorf("QueryRefreshes grew by %d, want %d", got, n)
	}
}

// TestShortReplyIsMalformed: a RefreshBatch reply that carries fewer items
// than its request asked keys fails the call rather than answering part of
// it.
func TestShortReplyIsMalformed(t *testing.T) {
	s, addr := newStubServer(t)
	close(s.release) // the stub answers every read with one item
	c := dialCfg(t, addr, Config{CacheSize: 4, Timeout: 5 * time.Second})
	if _, err := c.ReadMulti([]int{1, 2}); err == nil || !strings.Contains(err.Error(), "malformed reply") {
		t.Fatalf("two-key read answered with one item: %v, want the malformed-reply error", err)
	}
	if got := c.Stats().QueryRefreshes; got != 0 {
		t.Errorf("a malformed reply counted %d query refreshes", got)
	}
}

// TestQueryUpdateForUnknownQueryIgnored: the server may deliver a pushed
// QueryUpdate that was parked in a congested connection's merge buffer after
// the client unregistered the query. The client must drop it — no watch to
// route it to, no correlation state touched — and carry on.
func TestQueryUpdateForUnknownQueryIgnored(t *testing.T) {
	s, addr := newStubServer(t)
	c := dialCfg(t, addr, Config{CacheSize: 4, Timeout: 5 * time.Second})
	conn := <-s.accepted
	if err := netproto.Write(conn, &netproto.QueryUpdate{QID: 77, Value: 1, Lo: 0, Hi: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("Ping after an update for an unknown query: %v", err)
	}
}

func TestLateResponseAfterTimeout(t *testing.T) {
	s, addr := newStubServer(t)
	c := dialCfg(t, addr, Config{CacheSize: 4, Timeout: 50 * time.Millisecond})
	if _, err := c.ReadExact(9); err == nil {
		t.Fatalf("read against stalled server succeeded")
	}
	// Release the stalled response; it arrives with no waiter. The client
	// must treat it as unsolicited — no panic, no stuck correlation state —
	// and still install the (valid) interval.
	close(s.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if iv, ok := c.Get(9); ok && iv.Valid(42) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late response's interval never installed")
		}
		time.Sleep(time.Millisecond)
	}
	// The connection still works, given a deadline longer than the default.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.PingCtx(ctx); err != nil {
		t.Errorf("Ping after late response: %v", err)
	}
}

func TestCloseRacesInflightCalls(t *testing.T) {
	forEachConnMode(t, testCloseRacesInflightCalls)
}

func testCloseRacesInflightCalls(t *testing.T, mode string) {
	srv, addr := newServerMode(t, mode)
	for k := 0; k < 8; k++ {
		srv.SetInitial(k, float64(k))
	}
	c, err := DialConfig(addr, Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch g % 3 {
				case 0:
					_, err = c.ReadExact(g)
				case 1:
					_, err = c.ReadMulti([]int{0, 1, 2, 3})
				default:
					_, err = c.Query(workload.Query{Kind: workload.Sum, Keys: []int{4, 5, 6}, Delta: 0})
				}
				if err != nil {
					return // closed underneath us: expected
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	// Every post-close call fails fast.
	if _, err := c.ReadMulti([]int{0}); err == nil {
		t.Errorf("ReadMulti after close succeeded")
	}
}

// singleKeyMix issues n single-key calls from one goroutine — exact reads,
// subscribes, pings and reads of a key the server does not host, in a seeded
// mix — and returns how many it made. Each is one request frame answered by
// one reply frame (RefreshBatch, Pong or Error2). readExact makes the exact reads,
// so a caller can judge the values.
func singleKeyMix(t *testing.T, c *Client, seed int64, keys, n int, readExact func(key int) error) int {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := rng.Intn(keys)
		var err error
		switch rng.Intn(4) {
		case 0:
			err = readExact(k)
		case 1:
			err = c.Subscribe(k)
		case 2:
			err = c.Ping()
		default:
			if _, err = c.ReadExact(keys + 1000); errors.Is(err, aperrs.ErrUnknownKey) {
				err = nil
			} else if err == nil {
				err = errors.New("read of an unhosted key succeeded")
			}
		}
		if err != nil {
			t.Errorf("caller %d, call %d (key %d): %v", seed, i, k, err)
			return i + 1
		}
	}
	return n
}

// TestConcurrentSingleKeyCallsOneFrameEach covers the traffic the retired
// type-13 container carried until version 7: many goroutines making
// single-key calls on one connection, against a live feed. Stated exactly:
// every call is one frame out and one reply in (so the reply clock advances
// by the calls made), every exact read returns a value the key held while the
// call was in flight, and at quiescence every held interval contains the
// server's value.
func TestConcurrentSingleKeyCallsOneFrameEach(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		const keys, callers, perCaller = 32, 16, 100
		srv, addr := newServerMode(t, mode)
		for k := 0; k < keys; k++ {
			srv.SetInitial(k, float64(k))
		}
		c := dial(t, addr, keys) // room for every key: no mute ever costs a frame
		sentBefore := c.Stats().FramesSent
		_, seenBefore := c.MuteState()
		stop, fed := make(chan struct{}), make(chan struct{})
		go func() { // the feed: key k only ever grows, in steps that escape any interval
			defer close(fed)
			rng := rand.New(rand.NewSource(1))
			for step := 1; ; step++ {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond): // paced: on one CPU a spinning feed starves the callers
				}
				srv.Set(rng.Intn(keys), float64(1000*step))
			}
		}()
		readExact := func(k int) error {
			lo, _ := srv.Value(k)
			v, err := c.ReadExact(k)
			if hi, _ := srv.Value(k); err == nil && (v < lo || v > hi) {
				t.Errorf("ReadExact(%d) = %g, but the key went from %g to %g during the call", k, v, lo, hi)
			}
			return err
		}
		var calls atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				calls.Add(int64(singleKeyMix(t, c, int64(g), keys, perCaller, readExact)))
			}(g)
		}
		wg.Wait()
		close(stop)
		<-fed
		if sent := c.Stats().FramesSent - sentBefore; int64(sent) != calls.Load() {
			t.Errorf("%d calls left in %d frames, want one frame each", calls.Load(), sent)
		}
		if _, seen := c.MuteState(); int64(seen-seenBefore) != calls.Load() {
			t.Errorf("%d calls advanced the reply clock by %d, want one reply each", calls.Load(), seen-seenBefore)
		}
		if err := c.Ping(); err != nil { // behind every push
			t.Fatal(err)
		}
		held := 0
		for k := 0; k < keys; k++ {
			iv, ok := c.Get(k)
			if !ok {
				continue
			}
			held++
			if v, _ := srv.Value(k); !iv.Valid(v) {
				t.Errorf("key %d: client holds %v, server value %g", k, iv, v)
			}
		}
		if st := c.Stats(); held == 0 || st.ValueRefreshes == 0 {
			t.Errorf("the run exercised nothing: %d keys held, %d pushes", held, st.ValueRefreshes)
		}
	})
}

// TestIdleClientRunsOneGoroutine: every frame leaves from the goroutine that
// makes it, so an idle client runs its read loop and nothing else.
func TestIdleClientRunsOneGoroutine(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	c := dial(t, addr, 4)
	if _, err := c.ReadExact(0); err != nil {
		t.Fatal(err)
	}
	var gs []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if gs = ClientGoroutines(); len(gs) == 1 && strings.Contains(gs[0], "(*Client).readLoop(") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("an idle client runs %d goroutines, want its read loop alone:\n\n%s", len(gs), strings.Join(gs, "\n\n"))
		}
	}
}
