package client

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/server"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// eventually polls cond for up to ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// muteCounts reports the server's subscriptions and its honoured and refused
// mutes.
func muteCounts(srv *server.Server) (subs, mutes, refused int) {
	st := srv.Stats()
	for _, sh := range st.PerShard {
		subs += sh.Subscriptions
	}
	return subs, st.Mutes, st.MutesRefused
}

// replyGate is a frame-level proxy in front of a real server that can hold
// the server's frames back, in order, while the client's keep flowing: the
// window in which a reply is in flight, made as long as a test needs.
type replyGate struct {
	mu     sync.Mutex
	open   *sync.Cond
	closed bool
	held   int // frames read from the server while closed, not yet forwarded
}

func newReplyGate(t *testing.T, target string) (*replyGate, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	g := &replyGate{}
	g.open = sync.NewCond(&g.mu)
	go func() {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(up, down)
		for {
			msg, err := netproto.ReadMsg(up)
			if err != nil {
				return
			}
			g.mu.Lock()
			if g.closed {
				g.held++
				for g.closed {
					g.open.Wait()
				}
				g.held--
			}
			g.mu.Unlock()
			if netproto.Write(down, msg) != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { g.set(false) })
	return g, ln.Addr().String()
}

func (g *replyGate) set(closed bool) {
	g.mu.Lock()
	g.closed = closed
	g.mu.Unlock()
	g.open.Broadcast()
}

func (g *replyGate) holding() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held > 0
}

// TestMuteRefusedWhileReplyUnread walks one key through the protocol's race:
// the client announces it does not hold A while a reply that will re-admit A
// is still on its way. The server must refuse — the announcement's Seen is
// below the mark that reply stamped — or the client would end up holding an
// interval nobody refreshes. Then the ordinary path: a mute honoured, the key
// read again, held again and pushed again.
//
// The server's width rule here is deterministic (every read halves, every
// push doubles, from 10) and so are the lookups the cache credits (every
// c.Get, hit or miss; holds is one), which is what decides admission below.
func TestMuteRefusedWhileReplyUnread(t *testing.T) {
	const A, B, C = 1, 2, 3
	srv, addr := newServer(t)
	for _, k := range []int{A, B, C} {
		srv.SetInitial(k, 100)
	}
	gate, gaddr := newReplyGate(t, addr)
	c := dialCfg(t, gaddr, Config{CacheSize: 1})
	settle := func() {
		t.Helper()
		if err := c.Ping(); err != nil { // queues behind every push so far
			t.Fatal(err)
		}
	}
	holds := func(k int, v float64) {
		t.Helper()
		if iv, ok := c.Get(k); !ok || !iv.Valid(v) {
			t.Fatalf("client holds %v (held %v) for key %d, whose value is %g", iv, ok, k, v)
		}
	}
	if err := c.Subscribe(A); err != nil { // A, width 10
		t.Fatal(err)
	}
	if _, err := c.ReadMulti([]int{B}); err != nil { // neither ever looked up: B at 5 evicts A at 10
		t.Fatal(err)
	}
	if _, ok := c.Get(A); ok { // A's first lookup
		t.Fatalf("A survived B's admission into a cache of one")
	}
	if srv.Set(B, 200) != 1 { // B's width doubles in place, to 10
		t.Fatalf("B not pushed")
	}
	settle()

	gate.set(true)
	// A SubscribeMulti carries no tail, so A stays queued while the reply
	// carrying it is in flight; a read would announce A itself, ahead of
	// reading it.
	readA := make(chan error, 1)
	go func() { readA <- c.Subscribe(A) }()
	eventually(t, "the reply carrying A reaches the gate", gate.holding)
	readC := make(chan error, 1)
	go func() { _, err := c.ReadMulti([]int{C}); readC <- err }() // its tail names A
	eventually(t, "the server judges the mute of A", func() bool {
		_, mutes, refused := muteCounts(srv)
		return mutes+refused > 0
	})
	if subs, mutes, refused := muteCounts(srv); subs != 3 || mutes != 0 || refused != 1 {
		t.Fatalf("mute of A with its reply unread: subscriptions=%d mutes=%d refused=%d, want A, B and C kept and the mute refused", subs, mutes, refused)
	}
	gate.set(false)
	if err := <-readA; err != nil {
		t.Fatal(err)
	}
	if err := <-readC; err != nil {
		t.Fatal(err)
	}
	holds(A, 100) // A, looked up once, beat B, never looked up; C, neither, did not beat A
	if srv.Set(A, 300) != 1 {
		t.Fatalf("A is held by the client and was not pushed")
	}
	settle()
	holds(A, 300)

	// B and C are queued now. The next fetch announces them, and this time
	// nothing is in flight.
	if _, err := c.ReadMulti([]int{A}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "B and C dropped", func() bool { subs, mutes, _ := muteCounts(srv); return subs == 1 && mutes == 2 })
	if n := srv.Set(B, 400); n != 0 {
		t.Fatalf("dropped B pushed %d refreshes", n)
	}
	// A has three lookups to its credit and B none, so a read of B alone
	// would not re-admit it however narrow it came back; four lookups that
	// miss it do, at the read that follows them.
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(B); ok {
			t.Fatalf("B is held while dropped")
		}
	}
	if v, err := c.ReadExact(B); err != nil || v != 400 {
		t.Fatalf("ReadExact(B) = %g, %v", v, err)
	}
	holds(B, 400)
	if subs, _, _ := muteCounts(srv); subs != 2 {
		t.Errorf("%d subscriptions after B was read again, want 2 (B, and A, evicted by it and not yet announced)", subs)
	}
	if srv.Set(B, 500) != 1 {
		t.Fatalf("B is held again and was not pushed")
	}
	settle()
	holds(B, 500)
	if st := c.Stats(); st.MutesSent < 3 {
		t.Errorf("MutesSent = %d, want at least 3 (A refused, B and C honoured)", st.MutesSent)
	}
}

// TestWatchedKeysNeverMuted: a key a watch observes keeps its pushes while the
// store does not hold it. The claim is the watch's, not the subscription's:
// once the watch has closed nothing but the store wants the pushes, so the
// next one, ignored, queues the key and the following fetch mutes it.
func TestWatchedKeysNeverMuted(t *testing.T) {
	const W, T, X, Y = 1, 2, 3, 4
	srv, addr := newServer(t)
	for _, k := range []int{W, T, X, Y} {
		srv.SetInitial(k, 100)
	}
	c := dial(t, addr, 1)
	w, err := c.Watch(W)
	if err != nil {
		t.Fatal(err)
	}
	early, err := c.Watch(T)
	if err != nil {
		t.Fatal(err)
	}
	early.Close() // T's subscription outlives the watch; its claim on the pushes does not
	// X at width 5 takes the single slot; W and T are out of the store.
	if _, err := c.ReadMulti([]int{X}); err != nil {
		t.Fatal(err)
	}
	// Y at 5 does not beat X at 5 and is queued; the next fetch carries the
	// queue, and would carry W if it were on it.
	if _, err := c.ReadMulti([]int{Y}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadMulti([]int{X}); err != nil {
		t.Fatal(err)
	}
	if subs, mutes, refused := muteCounts(srv); subs != 3 || mutes != 1 || refused != 0 {
		t.Fatalf("subscriptions=%d mutes=%d refused=%d, want only Y dropped", subs, mutes, refused)
	}
	// Both are still live on the server. W's push reaches its watch; T's is
	// ignored and, with no watch left to want it, queues T.
	if srv.Set(W, 200) != 1 || srv.Set(T, 200) != 1 {
		t.Fatalf("watched key, or key not yet announced, not pushed")
	}
	collectUntil(t, w, func(u watch.Update) bool { return u.Key == W && u.Interval.Valid(200) })
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PushesIgnored != 2 {
		t.Errorf("PushesIgnored=%d, want 2", st.PushesIgnored)
	}
	if _, ok := c.Get(W); ok {
		t.Errorf("a push admitted W into the store")
	}
	if _, err := c.ReadMulti([]int{X}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "T dropped after its watch closed", func() bool { subs, _, _ := muteCounts(srv); return subs == 2 })
	if srv.Set(T, 300) != 0 {
		t.Errorf("dropped T still pushed")
	}
	if srv.Set(W, 300) != 1 {
		t.Errorf("watched W no longer pushed")
	}
	// The same for W once its watch closes.
	w.Close()
	srv.Set(W, 400)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadMulti([]int{X}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "W dropped after its watch closed", func() bool { subs, _, _ := muteCounts(srv); return subs == 1 })
	if srv.Set(W, 500) != 0 {
		t.Errorf("dropped W still pushed")
	}
}

// TestIdleClientFlushesMutesStandalone: a client that only subscribes has no
// ReadMulti to carry its mutes; once the queue passes muteFlushAt it sends
// them in a Mute frame of their own.
func TestIdleClientFlushesMutesStandalone(t *testing.T) {
	srv, addr := newServer(t)
	keys := make([]int, 2*muteFlushAt)
	for k := range keys {
		keys[k] = k
		srv.SetInitial(k, float64(k))
	}
	c := dial(t, addr, 4)
	before := c.Stats().FramesSent
	if err := c.SubscribeMulti(keys); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the idle client's mutes reach the server", func() bool {
		subs, _, _ := muteCounts(srv)
		return len(keys)-subs > muteFlushAt
	})
	st := c.Stats()
	if sent := st.FramesSent - before; sent < 2 {
		t.Errorf("%d frames sent, want the SubscribeMulti and at least one Mute", sent)
	}
	if queued, _ := c.MuteState(); queued > muteFlushAt {
		t.Errorf("%d keys still queued, want at most muteFlushAt = %d", queued, muteFlushAt)
	}
	if st.MutesSent <= muteFlushAt {
		t.Errorf("MutesSent = %d, want more than %d", st.MutesSent, muteFlushAt)
	}
	// A dropped key — an update far outside any interval pushes nothing — is
	// one read away from subscribed again.
	dropped := len(keys) - 1
	for ; srv.Set(dropped, 1e9) != 0; dropped-- {
		if dropped == 0 {
			t.Fatalf("every key still has a subscription")
		}
	}
	if _, err := c.ReadExact(dropped); err != nil {
		t.Fatal(err)
	}
	if srv.Set(dropped, -1e9) != 1 {
		t.Errorf("dropped key %d, just read, has no subscription", dropped)
	}
}

// TestReadExactCarriesTheMuteQueue: a single-key read is a one-key ReadMulti,
// so it carries the mute queue on its tail like any fetch, under either
// connection core.
func TestReadExactCarriesTheMuteQueue(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		srv, addr := newServerMode(t, mode)
		for k := 0; k < 2; k++ {
			srv.SetInitial(k, 100)
		}
		c := dial(t, addr, 1)
		if err := c.Subscribe(0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadExact(1); err != nil { // neither looked up: 1 at 5 evicts 0 at 10
			t.Fatal(err)
		}
		if queued, _ := c.MuteState(); queued != 1 {
			t.Fatalf("%d keys queued after the eviction, want 1", queued)
		}
		before := c.Stats().MutesSent
		if v, err := c.ReadExact(1); err != nil || v != 100 {
			t.Fatalf("ReadExact(1) = %g, %v", v, err)
		}
		if queued, _ := c.MuteState(); queued != 0 {
			t.Errorf("%d keys still queued after a ReadExact", queued)
		}
		if sent := c.Stats().MutesSent - before; sent != 1 {
			t.Errorf("the ReadExact announced %d keys, want the evicted one", sent)
		}
		// The server applies a tail before answering the reads it rides on.
		if subs, mutes, refused := muteCounts(srv); subs != 1 || mutes != 1 || refused != 0 {
			t.Errorf("subscriptions=%d mutes=%d refused=%d, want only key 1 kept", subs, mutes, refused)
		}
		if n := srv.Set(0, 1e9); n != 0 {
			t.Errorf("evicted key 0 pushed %d refreshes after the ReadExact announced it", n)
		}
	})
}

// TestPushCrossingUnsubscribeNotAdmitted: the peer answers the client's Mute
// for a key with one value-initiated push for it — the push the server had
// emitted just before it processed the frame. The slot Unsubscribe freed must
// stay free: an interval admitted now would be served with nobody refreshing
// it.
func TestPushCrossingUnsubscribeNotAdmitted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mutes atomic.Int32
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			msg, err := netproto.ReadMsg(conn)
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *netproto.Hello:
				netproto.Write(conn, &netproto.HelloAck{ID: m.ID, Version: netproto.Version})
			case *netproto.SubscribeMulti:
				netproto.Write(conn, &netproto.RefreshBatch{ID: m.ID, Items: []netproto.RefreshItem{{Key: m.Keys[0], Kind: netproto.KindInitial, Value: 10, Lo: 5, Hi: 15, OriginalWidth: 10}}})
			case *netproto.Ping:
				netproto.Write(conn, &netproto.Pong{ID: m.ID})
			case *netproto.Mute:
				for _, k := range m.Keys {
					netproto.Write(conn, &netproto.RefreshBatch{Items: []netproto.RefreshItem{{Key: k, Kind: netproto.KindValueInitiated, Value: 20, Lo: 15, Hi: 25, OriginalWidth: 10}}})
				}
				mutes.Add(1)
			}
		}
	}()
	c := dialCfg(t, ln.Addr().String(), Config{CacheSize: 4})
	if err := c.Subscribe(7); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(7); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the Mute frame reaches the peer", func() bool { return mutes.Load() == 1 })
	if err := c.Ping(); err != nil { // behind the crossing push
		t.Fatal(err)
	}
	if iv, ok := c.Get(7); ok {
		t.Fatalf("client holds %v for a key the server no longer refreshes", iv)
	}
	if st := c.Stats(); st.PushesIgnored != 1 || st.ValueRefreshes != 1 {
		t.Errorf("PushesIgnored=%d ValueRefreshes=%d, want 1 and 1", st.PushesIgnored, st.ValueRefreshes)
	}
}

// TestMuteProtocolStress runs the eviction protocol under the conditions it
// was designed for: a cache a sixteenth of the key space, eight query callers
// and sixteen single-key callers sharing the connection, a live feed. Mutes,
// the replies that cross them and pushes interleave freely; afterwards, with the feed stopped and
// everything delivered, every interval the client holds must contain the
// server's value, and once the mute queue is flushed the server must keep a
// subscription for exactly the keys the client holds. A mute honoured for a
// key the client went on to hold would leave such a key with no subscription.
func TestMuteProtocolStress(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		const keys, cacheSize, callers, singles = 256, 16, 8, 16
		srv, addr := newServerMode(t, mode)
		for k := 0; k < keys; k++ {
			srv.SetInitial(k, float64(k))
		}
		c := dial(t, addr, cacheSize)
		stop, fed := make(chan struct{}), make(chan struct{})
		go func() { // the feed
			defer close(fed)
			rng := rand.New(rand.NewSource(1))
			vals := make([]float64, keys)
			for {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond): // paced: on one CPU a spinning feed starves the callers
				}
				for i := 0; i < 16; i++ {
					k := rng.Intn(keys)
					vals[k] += (rng.Float64() - 0.5) * 40
					srv.Set(k, float64(k)+vals[k])
				}
			}
		}()
		// The callers run in rounds, and coherence is judged between rounds: a
		// held key with no subscription is caught only while it is held.
		const rounds = 5
		rngs := make([]*rand.Rand, callers)
		for g := range rngs {
			rngs[g] = rand.New(rand.NewSource(int64(100 + g)))
		}
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 250/rounds; i++ {
						q := workload.Query{Kind: workload.Sum, Delta: 20, Keys: make([]int, 4)}
						if i%3 == 0 {
							q.Kind, q.Delta = workload.Max, 2
						}
						for j := range q.Keys {
							q.Keys[j] = rngs[g].Intn(keys)
						}
						if _, err := c.Query(q); err != nil {
							t.Errorf("caller %d query %d: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			for g := 0; g < singles; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					singleKeyMix(t, c, int64(200+g+1000*round), keys, 100/rounds, func(k int) error {
						_, err := c.ReadExact(k)
						return err
					})
				}(g)
			}
			wg.Wait()
			checkCoherent(t, c, srv, keys)
		}
		// The feed outlives the last mute: a key dropped while held goes stale
		// once an update escapes its interval unannounced.
		time.Sleep(20 * time.Millisecond)
		close(stop)
		<-fed
		if err := c.Ping(); err != nil { // behind every push
			t.Fatal(err)
		}
		stale := 0
		for k := 0; k < keys; k++ {
			if iv, ok := c.Get(k); ok {
				if v, _ := srv.Value(k); !iv.Valid(v) {
					stale++
					t.Errorf("key %d: client holds %v, server value %g", k, iv, v)
				}
			}
		}
		held := checkCoherent(t, c, srv, keys)
		subs, mutes, refused := muteCounts(srv)
		st := c.Stats()
		t.Logf("held %d (stale %d); server subscriptions=%d mutes=%d refused=%d; client mutesSent=%d pushesIgnored=%d vir=%d qir=%d",
			held, stale, subs, mutes, refused, st.MutesSent, st.PushesIgnored, st.ValueRefreshes, st.QueryRefreshes)
		if mutes == 0 {
			t.Errorf("the run exercised nothing: %d mutes honoured", mutes)
		}
	})
}

// checkCoherent judges coherence between a lone client and its server once no
// call is in flight: re-reads of a held key carry the mute queue, a tail's
// worth at a time, every mute on them is honoured, and the server is left
// with a subscription for exactly the keys the client holds. A mute honoured
// while the reply carrying its key was in flight shows as a held key with
// none. A feed may keep running: a push never admits or evicts. It returns
// how many keys the client holds.
func checkCoherent(t *testing.T, c *Client, srv *server.Server, keys int) int {
	t.Helper()
	var held []int
	for k := 0; k < keys; k++ {
		if _, ok := c.Get(k); ok {
			held = append(held, k)
		}
	}
	if len(held) == 0 {
		t.Fatalf("the client holds nothing")
	}
	for queued := 1; queued > 0; queued, _ = c.MuteState() { // once at least: a standalone Mute may be ahead of it
		if _, err := c.ReadMulti(held[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if subs, _, _ := muteCounts(srv); subs != len(held) {
		t.Errorf("the server keeps %d subscriptions for the %d keys the client holds", subs, len(held))
	}
	for _, k := range held {
		if v, _ := srv.Value(k); srv.Set(k, v+1e9) != 1 { // escapes any held interval
			t.Errorf("key %d: the client holds it and the server has no subscription for it", k)
		}
	}
	return len(held)
}

// TestReadLoopReadsWhileOutboundWedged: the read loop never writes, since
// the server's reader may itself be blocked writing to this client. The peer
// here acks the Hello and then never reads again while it floods pushes for
// keys the client does not hold, so the mute queue keeps passing
// muteFlushAt. Small socket buffers wedge the client's Mute sender within
// kilobytes; the read loop must still apply every push, and no second
// goroutine may pile up behind the wedged write.
func TestReadLoopReadsWhileOutboundWedged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	const frames, keys = 2000, 4096
	peer, start, flooded := make(chan net.Conn, 1), make(chan struct{}), make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
		peer <- conn
		msg, err := netproto.ReadMsg(conn)
		h, ok := msg.(*netproto.Hello)
		if err != nil || !ok {
			flooded <- fmt.Errorf("first frame %T, %v; want a Hello", msg, err)
			return
		}
		if err := netproto.Write(conn, &netproto.HelloAck{ID: h.ID, Version: netproto.Version}); err != nil {
			flooded <- err
			return
		}
		<-start
		rb := &netproto.RefreshBatch{}
		for i := 0; i < frames; i++ {
			rb.Items = rb.Items[:0]
			for j := 0; j < maxBatch; j++ {
				rb.Items = append(rb.Items, netproto.RefreshItem{
					Key: int64((i*maxBatch + j) % keys), Kind: netproto.KindValueInitiated,
					Value: 1, Lo: 0, Hi: 2, OriginalWidth: 2,
				})
			}
			if err := netproto.Write(conn, rb); err != nil {
				flooded <- err
				return
			}
		}
		flooded <- nil
	}()
	c := dialCfg(t, ln.Addr().String(), Config{CacheSize: 1, Timeout: 5 * time.Second})
	conn := <-peer
	t.Cleanup(func() { conn.Close() }) // runs before the client's Close: fails a wedged write first
	c.mu.Lock()
	c.sess.conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	c.mu.Unlock()
	close(start)
	select {
	case err := <-flooded:
		if err != nil {
			t.Fatalf("flood: %v", err)
		}
	case <-time.After(10 * time.Second):
		gs := ClientGoroutines()
		conn.Close() // fail the client's wedged write, so the cleanups can run
		t.Fatalf("the client stopped reading pushes; its goroutines:\n\n%s", strings.Join(gs, "\n\n"))
	}
	eventually(t, "the read loop applies every push", func() bool {
		return c.Stats().ValueRefreshes == frames*maxBatch
	})
	var sending []string
	for _, g := range ClientGoroutines() {
		if strings.Contains(g, "(*Client).send(") {
			sending = append(sending, g)
			if strings.Contains(g, "(*Client).readLoop(") {
				t.Errorf("the read loop is writing:\n\n%s", g)
			}
		}
	}
	if len(sending) != 1 {
		t.Errorf("%d goroutines in send, want the one wedged Mute sender:\n\n%s", len(sending), strings.Join(sending, "\n\n"))
	}
}
