package apcache

// Chaos suite: kills and restarts servers under live load, with the
// fault-injection proxy (internal/faultnet) standing between client and
// server so outages look like real network failures rather than clean
// shutdowns. Run under `go test -race`. The contract being checked is the
// fault-tolerant session layer's:
//
//   - a client with ReconnectPolicy.Enabled survives a server restart:
//     it redials, re-runs the handshake, and replays every live
//     subscription, so the replacement server ends up with the same
//     subscription set the original had;
//   - calls that fail during the outage fail with the typed ErrConnLost,
//     never a bare string error;
//   - Watch streams emit EventDisconnected / EventReconnected around the
//     outage and then resume delivering refreshes;
//   - nothing leaks: after teardown the goroutine count returns to its
//     pre-test baseline;
//   - Server.Shutdown drains parked pushes before closing connections.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"apcache/internal/faultnet"
)

// chaosServe starts a server in the given connection mode and seeds keys
// 0..keys-1 with value float64(k)+seedDelta.
func chaosServe(t *testing.T, mode string, keys int, seedDelta float64) (*Server, string) {
	t.Helper()
	srv, addr, err := Serve("127.0.0.1:0", ServerConfig{
		Params:        DefaultParams(1, 2, 0),
		InitialWidth:  8,
		Shards:        4,
		FlushInterval: 500 * time.Microsecond,
		ConnMode:      mode,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := srv.ConnMode(); got != mode {
		srv.Close()
		t.Fatalf("server runs ConnMode %q, want %q", got, mode)
	}
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, float64(k)+seedDelta)
	}
	return srv, addr.String()
}

// totalSubs sums live (client, key) subscriptions across a server's shards.
func totalSubs(srv *Server) int {
	n := 0
	for _, sh := range srv.Stats().PerShard {
		n += sh.Subscriptions
	}
	return n
}

// settleGoroutines samples the goroutine count after a GC settle, for use
// as a leak baseline.
func settleGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitGoroutines polls until the goroutine count returns to within a small
// slack of baseline, dumping stacks on timeout.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			sz := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, baseline, buf[:sz])
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

// errCollector gathers errors from concurrent load goroutines.
type errCollector struct {
	mu   sync.Mutex
	errs []error
}

func (ec *errCollector) add(err error) {
	ec.mu.Lock()
	ec.errs = append(ec.errs, err)
	ec.mu.Unlock()
}

func (ec *errCollector) snapshot() []error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return append([]error(nil), ec.errs...)
}

// TestChaosServerRestartResubscribes is the headline chaos scenario: a
// client holds 1000 live subscriptions and an open Watch through the fault
// proxy; the server is killed and every link severed; a replacement server
// comes up on a fresh port and the proxy is retargeted. The client must
// reconnect, replay all 1000 subscriptions, resume the Watch with a
// Disconnected/Reconnected event pair, and fail every outage-window call
// with the typed ErrConnLost — and nothing may leak.
func TestChaosServerRestartResubscribes(t *testing.T) {
	forEachConnMode(t, chaosServerRestart)
}

func chaosServerRestart(t *testing.T, mode string) {
	const keys = 1000
	baseline := settleGoroutines()

	srv1, addr1 := chaosServe(t, mode, keys, 0)
	proxy, err := faultnet.Listen(addr1)
	if err != nil {
		t.Fatalf("faultnet.Listen: %v", err)
	}
	defer proxy.Close()

	c, err := DialConfig(proxy.Addr(), ClientConfig{
		CacheSize: keys,
		Reconnect: ReconnectPolicy{
			Enabled:   true,
			BaseDelay: time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()

	all := make([]int, keys)
	for k := range all {
		all[k] = k
	}
	if err := c.SubscribeMulti(all); err != nil {
		t.Fatalf("SubscribeMulti: %v", err)
	}
	if got := totalSubs(srv1); got != keys {
		t.Fatalf("server holds %d subscriptions before the outage, want %d", got, keys)
	}

	w, err := c.Watch(0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()

	// Background load: continuous exact reads across the key space. Every
	// error observed during the outage must be the typed connection-loss
	// error.
	var ec errCollector
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.ReadExact(rng.Intn(keys)); err != nil {
					ec.add(err)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(int64(g))
	}

	// Kill the server and cut every live link mid-flight.
	srv1.Close()
	proxy.Sever()

	// Wait until the outage is observable from the load goroutines, so the
	// in-flight-call error path is genuinely exercised before recovery.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if len(ec.snapshot()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no call failed during the outage")
		}
		time.Sleep(time.Millisecond)
	}

	// Replacement server on a fresh port, different values; retarget the
	// proxy so the client's redial loop finds it.
	srv2, addr2 := chaosServe(t, mode, keys, 0.25)
	defer srv2.Close()
	proxy.SetTarget(addr2)

	// Recovery: the client must report a successful reconnect and the
	// replacement server must hold the full replayed subscription set.
	for deadline := time.Now().Add(15 * time.Second); ; {
		st := c.Stats()
		if st.Reconnects >= 1 && totalSubs(srv2) == keys {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery incomplete: reconnects=%d, replayed subscriptions=%d/%d",
				st.Reconnects, totalSubs(srv2), keys)
		}
		time.Sleep(time.Millisecond)
	}

	close(stop)
	wg.Wait()
	for _, err := range ec.snapshot() {
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("outage-window call failed with %v; want errors.Is(err, ErrConnLost)", err)
		}
	}

	// The Watch must have seen the outage as an event pair and then resumed
	// delivering refreshes from the replacement server. Sets drive key 0 far
	// outside its interval so a push is guaranteed.
	sawDisc, sawReco := false, false
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	timeout := time.After(15 * time.Second)
	next := 1e6
	for resumed := false; !resumed; {
		select {
		case u, ok := <-w.Updates():
			if !ok {
				t.Fatalf("watch failed across restart: %v", w.Err())
			}
			switch u.Event {
			case EventDisconnected:
				sawDisc = true
			case EventReconnected:
				if !sawDisc {
					t.Fatalf("EventReconnected delivered before EventDisconnected")
				}
				sawReco = true
			default:
				if sawReco && u.Key == 0 {
					resumed = true
				}
			}
		case <-tick.C:
			next += 1e5
			srv2.Set(0, next)
		case <-timeout:
			t.Fatalf("watch never resumed: sawDisconnected=%v sawReconnected=%v", sawDisc, sawReco)
		}
	}

	// Safety spot-check after a Ping drain: replayed intervals must contain
	// the replacement server's exact values.
	if err := c.Ping(); err != nil {
		t.Fatalf("post-recovery Ping: %v", err)
	}
	for k := 1; k < keys; k += 97 {
		iv, cached := c.Get(k)
		if !cached {
			continue // evicted is legal
		}
		v, ok := srv2.Value(k)
		if !ok {
			t.Fatalf("replacement server lost key %d", k)
		}
		if !iv.Valid(v) {
			t.Fatalf("key %d: replayed interval %v does not contain exact value %g", k, iv, v)
		}
	}

	w.Close()
	if err := c.Close(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Close: %v", err)
	}
	srv2.Close()
	proxy.Close()
	waitGoroutines(t, baseline)
}

// TestChaosFlapSurvival cycles the proxy up and down every few milliseconds
// while load runs, the reconnect-storm regime. The client must ride out the
// flapping with only typed connection-loss errors and come back fully
// usable once the link stabilizes.
func TestChaosFlapSurvival(t *testing.T) {
	forEachConnMode(t, chaosFlap)
}

func chaosFlap(t *testing.T, mode string) {
	const keys = 64
	baseline := settleGoroutines()

	srv, addr := chaosServe(t, mode, keys, 0)
	defer srv.Close()
	proxy, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatalf("faultnet.Listen: %v", err)
	}
	defer proxy.Close()

	c, err := DialConfig(proxy.Addr(), ClientConfig{
		CacheSize: keys,
		Reconnect: ReconnectPolicy{
			Enabled:   true,
			BaseDelay: time.Millisecond,
			MaxDelay:  10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	all := make([]int, keys)
	for k := range all {
		all[k] = k
	}
	if err := c.SubscribeMulti(all); err != nil {
		t.Fatalf("SubscribeMulti: %v", err)
	}

	stopFlap := proxy.Flap(8*time.Millisecond, 8*time.Millisecond)
	var ec errCollector
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.ReadExact(rng.Intn(keys)); err != nil {
					ec.add(err)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(int64(g + 50))
	}
	time.Sleep(300 * time.Millisecond)
	stopFlap()
	close(stop)
	wg.Wait()

	for _, err := range ec.snapshot() {
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("flap-window call failed with %v; want errors.Is(err, ErrConnLost)", err)
		}
	}

	// Once the link stabilizes a full sweep must eventually succeed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for k := 0; k < keys; k++ {
			if _, err := c.ReadExact(k); err != nil {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after flapping stopped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	c.Close()
	srv.Close()
	proxy.Close()
	waitGoroutines(t, baseline)
}

// TestShutdownDrainDeliversFinalValues checks the graceful-drain contract:
// a burst of Sets parks pushes in flush windows and queues, and
// Server.Shutdown must flush them all to the subscribed client before
// closing its connection. The server runs durable, extending the contract
// across the process boundary: the drained journal must recover — on a
// replacement server over the same WAL directory — to exactly the final
// values the client was sent, at the widths it was sent them.
func TestShutdownDrainDeliversFinalValues(t *testing.T) {
	forEachConnMode(t, shutdownDrain)
}

func shutdownDrain(t *testing.T, mode string) {
	const keys = 32
	baseline := settleGoroutines()

	walDir := t.TempDir()
	srv, addr, err := Serve("127.0.0.1:0", ServerConfig{
		Params:        DefaultParams(1, 2, 0),
		InitialWidth:  8,
		Shards:        4,
		FlushInterval: 2 * time.Millisecond, // wide window: pushes park in it
		ConnMode:      mode,
		WALDir:        walDir,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, float64(k))
	}
	c, err := DialConfig(addr.String(), ClientConfig{CacheSize: keys})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	all := make([]int, keys)
	for k := range all {
		all[k] = k
	}
	if err := c.SubscribeMulti(all); err != nil {
		t.Fatalf("SubscribeMulti: %v", err)
	}

	// Every Set lands far outside the key's interval, forcing a push; then
	// Shutdown immediately, while pushes are still parked in the flush
	// window.
	for k := 0; k < keys; k++ {
		srv.Set(k, 1e6+float64(k))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The drained bytes are in flight to the client; its read loop applies
	// them before hitting EOF. Poll until every final value is visible.
	deadline := time.Now().Add(5 * time.Second)
	for k := 0; k < keys; k++ {
		for {
			iv, cached := c.Get(k)
			if cached && iv.Valid(1e6+float64(k)) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d: interval %v never received the drained final value %g",
					k, iv, 1e6+float64(k))
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The drain's durability half: a replacement server recovered from the
	// same WAL directory must host exactly the final values the client was
	// just sent — and the widths it was sent them at must be the recovered
	// learned seeds, so a resubscribing client resumes at that precision.
	srv2, _, err := Serve("127.0.0.1:0", ServerConfig{
		Params:       DefaultParams(1, 2, 0),
		InitialWidth: 8,
		Shards:       4,
		ConnMode:     mode,
		WALDir:       walDir,
	})
	if err != nil {
		t.Fatalf("recovery Serve: %v", err)
	}
	for k := 0; k < keys; k++ {
		v, ok := srv2.Value(k)
		if !ok {
			t.Fatalf("key %d: not recovered from the drained WAL", k)
		}
		if want := 1e6 + float64(k); v != want {
			t.Fatalf("key %d: recovered value %g, want the drained final value %g", k, v, want)
		}
		iv, cached := c.Get(k)
		if !cached {
			continue // evicted is legal; the value check above still holds
		}
		if w, ok := srv2.LearnedWidth(k); !ok || !almostEq(w, iv.Width()) {
			t.Fatalf("key %d: recovered learned width %g (ok=%v), client holds width %g",
				k, w, ok, iv.Width())
		}
	}
	if err := srv2.Shutdown(nil); err != nil {
		t.Fatalf("recovery server Shutdown: %v", err)
	}

	c.Close()
	waitGoroutines(t, baseline)
}

// almostEq compares widths that traveled through the wire format (float64
// end to end, so exact equality is expected; the epsilon guards rounding in
// interval reconstruction only).
func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
