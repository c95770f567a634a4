package client

// Edge cases of the fault-tolerant session layer: deterministic backoff
// bounds, Close racing an active redial loop, a replacement peer on another
// protocol version, degraded stale reads during an
// outage, redial exhaustion, and what a reconnect replays: the coherence set
// of held and watched keys, never a key unsubscribed, evicted or refused.
// The happy-path restart scenario (full replay under 1k subscriptions) lives
// in the root chaos suite.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/core"
	"apcache/internal/faultnet"
	"apcache/internal/netproto"
	"apcache/internal/server"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// expectedBound mirrors the documented backoff ceiling: min(MaxDelay,
// BaseDelay doubled attempt times), with the policy's defaulting rules.
func expectedBound(p ReconnectPolicy, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultReconnectBase
	}
	ceil := p.MaxDelay
	if ceil <= 0 {
		ceil = DefaultReconnectCap
	}
	if ceil < base {
		ceil = base
	}
	bound := base
	for i := 0; i < attempt && bound < ceil; i++ {
		bound *= 2
	}
	if bound > ceil {
		bound = ceil
	}
	return bound
}

func TestBackoffDelayBounds(t *testing.T) {
	p := ReconnectPolicy{Enabled: true, BaseDelay: 10 * time.Millisecond, MaxDelay: 75 * time.Millisecond}
	for attempt := 0; attempt < 70; attempt++ {
		bound := expectedBound(p, attempt)
		if got := BackoffDelay(p, attempt, 1); got != bound {
			t.Fatalf("attempt %d: delay(r=1) = %v, want the full bound %v", attempt, got, bound)
		}
		if got := BackoffDelay(p, attempt, 0); got != 0 {
			t.Fatalf("attempt %d: delay(r=0) = %v, want 0 (full jitter reaches zero)", attempt, got)
		}
		if got := BackoffDelay(p, attempt, 0.5); got != bound/2 {
			t.Fatalf("attempt %d: delay(r=0.5) = %v, want %v", attempt, got, bound/2)
		}
	}
	// Far past any doubling horizon the bound is exactly the cap — no
	// overflow, no negative sleeps.
	if got := BackoffDelay(p, 1<<20, 1); got != 75*time.Millisecond {
		t.Fatalf("huge attempt: delay = %v, want the 75ms cap", got)
	}
	// The zero policy gets the documented defaults.
	var zero ReconnectPolicy
	if got := BackoffDelay(zero, 0, 1); got != DefaultReconnectBase {
		t.Fatalf("zero policy first delay = %v, want DefaultReconnectBase %v", got, DefaultReconnectBase)
	}
	if got := BackoffDelay(zero, 1<<20, 1); got != DefaultReconnectCap {
		t.Fatalf("zero policy capped delay = %v, want DefaultReconnectCap %v", got, DefaultReconnectCap)
	}
	// A cap below the base is raised to the base rather than inverting the
	// range.
	inv := ReconnectPolicy{BaseDelay: 20 * time.Millisecond, MaxDelay: 5 * time.Millisecond}
	for _, attempt := range []int{0, 1, 8} {
		if got := BackoffDelay(inv, attempt, 1); got != 20*time.Millisecond {
			t.Fatalf("inverted policy attempt %d: delay = %v, want the 20ms base", attempt, got)
		}
	}
}

// fastRedial is a reconnect policy quick enough for a test to wait out.
var fastRedial = ReconnectPolicy{Enabled: true, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}

// proxied dials a client through a fresh fault proxy in front of addr.
func proxied(t *testing.T, addr string, cfg Config) (*faultnet.Proxy, *Client) {
	t.Helper()
	p, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatalf("faultnet.Listen: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, dialCfg(t, p.Addr(), cfg)
}

// waitDown polls until the client observes the outage (a call fails).
func waitDown(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.ReadExact(0); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never observed the outage")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseRacesRedial closes the client while its redial loop is spinning
// against a dead target — in the backoff sleep, mid-dial, or before the
// outage is even noticed. Close must win promptly, calls after it must be
// ErrClosed, and no correlation-table entries may leak.
func TestCloseRacesRedial(t *testing.T) {
	forEachConnMode(t, testCloseRacesRedial)
}

func testCloseRacesRedial(t *testing.T, mode string) {
	for i := 0; i < 8; i++ {
		srv, addr := newServerMode(t, mode)
		srv.SetInitial(0, 1)
		p, c := proxied(t, addr, Config{CacheSize: 8, Reconnect: ReconnectPolicy{
			Enabled:   true,
			BaseDelay: time.Millisecond,
			MaxDelay:  4 * time.Millisecond,
		}})
		if err := c.Subscribe(0); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		srv.Close()
		p.Sever()
		if i%2 == 0 {
			// Half the iterations let the redial loop get going before the
			// close; the other half race it against outage detection.
			waitDown(t, c)
		}
		done := make(chan error, 1)
		go func() { done <- c.Close() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Close blocked on an active redial loop", i)
		}
		if err := c.Subscribe(0); !errors.Is(err, ErrClosed) {
			t.Fatalf("iteration %d: Subscribe after Close = %v, want ErrClosed", i, err)
		}
		if n := c.PendingCalls(); n != 0 {
			t.Fatalf("iteration %d: %d correlation entries leaked across Close", i, n)
		}
		p.Close()
	}
}

// TestReconnectRefusedByOtherVersion replaces the server, behind the same
// proxy address, with a peer that acks an older protocol version. Every
// redial's handshake must count as a failed attempt — never a recovered
// session on some other wire — and be retried per the policy until
// MaxAttempts exhausts it.
func TestReconnectRefusedByOtherVersion(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 5)
	p, c := proxied(t, addr, Config{CacheSize: 8, Reconnect: ReconnectPolicy{
		Enabled:     true,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		MaxAttempts: 3,
	}})
	w, err := c.Watch(0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	stub, hellos := ackStub(t, netproto.Version-1)
	p.SetTarget(stub)
	srv.Close()
	p.Sever()

	deadline := time.Now().Add(10 * time.Second)
	for w.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("watch never failed; redial loop did not give up on the refusing peer")
		}
		time.Sleep(time.Millisecond)
	}
	if got := hellos.Load(); got != 3 {
		t.Errorf("refusing peer saw %d handshakes, want one per allowed attempt (3)", got)
	}
	if st := c.Stats(); st.Reconnects != 0 {
		t.Errorf("%d reconnects recorded against a peer on another protocol version", st.Reconnects)
	}
	if err := c.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Errorf("call after give-up = %v, want ErrClosed", err)
	}
}

// TestStaleReadsServedDuringOutage: cached approximations stay readable
// during an outage — the last-known interval at its last-known width — and
// Stats.Degraded reports the outage while it lasts.
func TestStaleReadsServedDuringOutage(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 50)
	p, c := proxied(t, addr, Config{
		CacheSize: 8,
		// A huge backoff holds the outage open for the duration of the
		// test; Close must still cut the sleep short at cleanup.
		Reconnect: ReconnectPolicy{Enabled: true, BaseDelay: time.Hour, MaxDelay: time.Hour},
	})
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	iv0, ok := c.Get(0)
	if !ok {
		t.Fatalf("healthy client does not hold key 0")
	}
	if st := c.Stats(); st.Degraded {
		t.Fatalf("healthy client reports Degraded")
	}

	srv.Close()
	p.Sever()
	waitDown(t, c)
	time.Sleep(5 * time.Millisecond)

	if iv, ok := c.Get(0); !ok || iv != iv0 {
		t.Fatalf("Get during the outage = %v, %v; want the last-known %v", iv, ok, iv0)
	}
	if !c.Stats().Degraded {
		t.Fatalf("client in outage does not report Degraded")
	}
	// A query plans on the same read, taken as one counted lookup.
	before := c.Stats().Cache
	ans, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0}, Delta: 1e9})
	if err != nil {
		t.Fatalf("Query answerable from the stale cache: %v", err)
	}
	if ans.Result != iv0 {
		t.Fatalf("query answered %v, want the last-known %v", ans.Result, iv0)
	}
	if after := c.Stats().Cache; after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("one-key query moved the lookup counters %+v -> %+v, want one hit", before, after)
	}
}

// TestRedialGivesUpAfterMaxAttempts: an exhausted policy is terminal — the
// watches fail with the typed connection loss and the client behaves as
// closed afterwards.
func TestRedialGivesUpAfterMaxAttempts(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	p, c := proxied(t, addr, Config{CacheSize: 8, Reconnect: ReconnectPolicy{
		Enabled:     true,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		MaxAttempts: 3,
	}})
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	w, err := c.Watch(0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	srv.Close()
	p.Sever()

	deadline := time.Now().Add(10 * time.Second)
	for w.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("watch never failed; redial loop did not give up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Err(); !errors.Is(err, aperrs.ErrConnLost) {
		t.Fatalf("give-up failed the watch with %v, want errors.Is(err, ErrConnLost)", err)
	}
	if st := c.Stats(); st.Reconnects != 0 {
		t.Fatalf("%d reconnects recorded against an unreachable target", st.Reconnects)
	}
	if err := c.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after give-up = %v, want ErrClosed", err)
	}
}

// TestUnsubscribeDuringOutageNotReplayed: Unsubscribe while down succeeds
// locally (the whole job is dropping the key from the store) and the key,
// neither held nor watched, must not be replayed to the replacement server.
func TestUnsubscribeDuringOutageNotReplayed(t *testing.T) {
	srv1, addr1 := newServer(t)
	srv1.SetInitial(0, 1)
	srv1.SetInitial(1, 2)
	p, c := proxied(t, addr1, Config{CacheSize: 8, Reconnect: fastRedial})
	if err := c.SubscribeMulti([]int{0, 1}); err != nil {
		t.Fatalf("SubscribeMulti: %v", err)
	}
	srv1.Close()
	p.Sever()
	waitDown(t, c)
	if err := c.Unsubscribe(1); err != nil {
		t.Fatalf("Unsubscribe during outage = %v, want local success", err)
	}
	if _, cached := c.Get(1); cached {
		t.Fatalf("unsubscribed key still cached during the outage")
	}

	srv2, addr2 := newServer(t)
	srv2.SetInitial(0, 3)
	srv2.SetInitial(1, 4)
	p.SetTarget(addr2)

	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Reconnects < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
	subs := 0
	for _, sh := range srv2.Stats().PerShard {
		subs += sh.Subscriptions
	}
	if subs != 1 {
		t.Fatalf("replacement server holds %d subscriptions, want 1 (key 1 was unsubscribed while down)", subs)
	}
	if _, cached := c.Get(1); cached {
		t.Fatalf("unsubscribed key reappeared after the reconnect replay")
	}
	if v, err := c.ReadExact(0); err != nil || v != 3 {
		t.Fatalf("surviving key reads %g, %v; want 3", v, err)
	}
}

// waitReconnects polls until the client has completed n reconnections.
func waitReconnects(t *testing.T, c *Client, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Reconnects < n {
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnectReplaysKeysHeldThroughReads: a key the store holds because a
// read put it there — never passed to Subscribe — has a server-side
// subscription only as long as its connection lives. The replacement session
// must subscribe it again, or the client serves the old interval for good.
func TestReconnectReplaysKeysHeldThroughReads(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(1, 50)
	p, c := proxied(t, addr, Config{CacheSize: 8, Reconnect: fastRedial})
	if v, err := c.ReadExact(1); err != nil || v != 50 {
		t.Fatalf("ReadExact(1) = %g, %v", v, err)
	}
	p.Sever()
	waitReconnects(t, c, 1)
	srv.Set(1, 5000)
	if err := c.Ping(); err != nil { // behind the push, if there was one
		t.Fatal(err)
	}
	if iv, ok := c.Get(1); !ok || !iv.Valid(5000) {
		t.Fatalf("after reconnect the client serves %v (held %v) for key 1, whose value is 5000", iv, ok)
	}
}

// TestMuteStateResetsOnReconnect: the mute queue and the reply count belong
// to one stream. A key queued on the old session means nothing to the new
// server-side connection, and a Seen carried over would outrun the new
// session's marks and get every mute honoured.
func TestMuteStateResetsOnReconnect(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(1, 50)
	srv.SetInitial(2, 60)
	p, c := proxied(t, addr, Config{CacheSize: 1, Reconnect: fastRedial})
	// Key 1 takes the slot at width 5; key 2, read at width 5, does not beat
	// it and is queued.
	for _, k := range []int{1, 2} {
		if _, err := c.ReadExact(k); err != nil {
			t.Fatal(err)
		}
	}
	if queued, seen := c.MuteState(); queued != 1 || seen != 3 {
		t.Fatalf("before the outage: %d queued, seen %d; want 1 and 3 (HelloAck and two reads)", queued, seen)
	}
	p.Sever()
	waitReconnects(t, c, 1)
	// The new session has seen its HelloAck and the replay of key 1, the one
	// key held; key 2 is neither held nor watched and is not replayed.
	if queued, seen := c.MuteState(); queued != 0 || seen != 2 {
		t.Fatalf("after the reconnect: %d queued, seen %d; want 0 and 2", queued, seen)
	}
	if _, err := c.ReadMulti([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, mutes, refused := muteCounts(srv); mutes+refused != 0 {
		t.Errorf("the old session's queue reached the new one: mutes=%d refused=%d", mutes, refused)
	}
}

// TestWatchedKeySurvivesReconnect: Unsubscribe drops a watched key from the
// store but withholds its mute, so the server keeps the key's pair for the
// watch. A reconnect replays the coherence set — held keys and watched keys —
// so the new stream must have that pair too, or the watch goes silent.
func TestWatchedKeySurvivesReconnect(t *testing.T) {
	srv1, addr1 := newServer(t)
	srv1.SetInitial(1, 50)
	p, c := proxied(t, addr1, Config{CacheSize: 8, Reconnect: fastRedial})
	w, err := c.Watch(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := c.Unsubscribe(1); err != nil {
		t.Fatal(err)
	}
	if subs, _, _ := muteCounts(srv1); subs != 1 {
		t.Fatalf("the server holds %d pairs for the watched, unsubscribed key, want 1", subs)
	}
	// A replacement server behind the proxy counts the new stream's pairs
	// alone.
	srv2, addr2 := newServer(t)
	srv2.SetInitial(1, 60)
	p.SetTarget(addr2)
	p.Sever()
	waitReconnects(t, c, 1)
	if subs, _, _ := muteCounts(srv2); subs != 1 {
		t.Fatalf("watched key has %d server pairs after reconnect, want 1", subs)
	}
	collectUntil(t, w, func(u watch.Update) bool { return u.Event == watch.EventReconnected })
	if srv2.Set(1, 5000) != 1 {
		t.Fatalf("watched key not pushed after the reconnect")
	}
	collectUntil(t, w, func(u watch.Update) bool { return u.Key == 1 && u.Interval.Valid(5000) })
}

// TestReplayIsTheCoherenceSet: a key the store refused or evicted has no
// place in the replay, even though Subscribe asked for it. Right after the
// reconnect — before any ReadMulti could carry a mute — the new stream holds
// a pair for exactly the keys the store holds.
func TestReplayIsTheCoherenceSet(t *testing.T) {
	srv1, addr1 := newServer(t)
	srv1.SetInitial(1, 50)
	srv1.SetInitial(2, 60)
	p, c := proxied(t, addr1, Config{CacheSize: 1, Reconnect: fastRedial})
	if err := c.SubscribeMulti([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if held := c.Held(); held != 1 {
		t.Fatalf("a cache of one holds %d keys", held)
	}
	srv2, addr2 := newServer(t)
	srv2.SetInitial(1, 70)
	srv2.SetInitial(2, 80)
	p.SetTarget(addr2)
	p.Sever()
	waitReconnects(t, c, 1)
	if subs, _, _ := muteCounts(srv2); subs != c.Held() {
		t.Fatalf("the reconnect replayed %d keys for the %d the store holds", subs, c.Held())
	}
}

// TestReconnectSendsHelloFirst: a call racing a redial must never reach the
// new stream ahead of its Hello. The server refuses such a stream ("before
// Hello") and closes it, wasting the attempt. Four callers loop reads while
// the proxy is severed twenty times; every sever must cost exactly one
// reconnect, and the server must refuse nothing. The race needs a second CPU:
// a client that published the stream before its Hello was refused in every
// run at -cpu 2 and 4, and in none at -cpu 1.
func TestReconnectSendsHelloFirst(t *testing.T) {
	var refused atomic.Int32
	srv := server.New(server.Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         1,
		Logf: func(format string, args ...interface{}) {
			if strings.Contains(fmt.Sprintf(format, args...), "before Hello") {
				refused.Add(1)
			}
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	const keys, callers, severs = 8, 4, 20
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, float64(k))
	}
	p, c := proxied(t, addr.String(), Config{CacheSize: keys, Reconnect: fastRedial})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.ReadExact(i % keys); err != nil {
					if !errors.Is(err, aperrs.ErrConnLost) {
						t.Errorf("ReadExact: %v, want success or ErrConnLost", err)
						return
					}
					runtime.Gosched() // let the redial run between retries
				}
			}
		}(g)
	}
	for i := 1; i <= severs; i++ {
		p.Sever()
		waitReconnects(t, c, i)
	}
	close(stop)
	wg.Wait()
	if n := c.Stats().Reconnects; n != severs {
		t.Errorf("%d reconnects for %d severs, want one each", n, severs)
	}
	if n := refused.Load(); n != 0 {
		t.Errorf("the server refused %d streams whose first frame was not the Hello", n)
	}
}

// TestInflightCallFailsWithItsStreamsLoss: a call in flight when its stream
// dies fails with that stream's typed loss, however late its caller awaits.
// Here the caller awaits only once the redial has replaced the stream and
// cleared the loss it recorded; a waiter that looked the loss up on waking
// would find a healthy client and report ErrClosed.
func TestInflightCallFailsWithItsStreamsLoss(t *testing.T) {
	stub, stubAddr := newStubServer(t) // holds every ReadMulti reply
	t.Cleanup(func() { close(stub.release) })
	p, c := proxied(t, stubAddr, Config{CacheSize: 4, Reconnect: fastRedial})
	await, err := c.StartReadExact(9)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := newServer(t)
	p.SetTarget(addr)
	p.Sever()
	waitReconnects(t, c, 1)
	if err := await(); !errors.Is(err, aperrs.ErrConnLost) {
		t.Fatalf("the severed stream's call failed with %v, want ErrConnLost", err)
	}
}

// TestCloseDuringOutageReturnsNil: Close on a client whose stream died and
// whose redial loop is still trying returns nil, as it does with reconnect
// disabled — not the error of closing a stream the read loop already closed.
func TestCloseDuringOutageReturnsNil(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	c, err := DialConfig(addr, Config{CacheSize: 8, Reconnect: fastRedial})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	srv.Close()
	waitDown(t, c)
	if !c.Stats().Degraded {
		t.Fatal("client in outage does not report Degraded")
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close during an outage: %v, want nil", err)
	}
}

// TestQueryClosedDuringReplayIsWithdrawn: a query watch closed after a
// reconnect's replay has taken its query list, but before it re-registers
// that query, sends its UnregisterQuery ahead of the replay's RegisterQuery.
// The server ignores it (the QID is not live yet), so the replay must
// withdraw the query once it is acked, or it stays live with no watch to
// read it. The proxy's latency holds the replay open while the watch closes.
func TestQueryClosedDuringReplayIsWithdrawn(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 0)
	srv.SetInitial(1, 1)
	p, c := proxied(t, addr, Config{CacheSize: 2, Reconnect: fastRedial})
	if err := c.Subscribe(0); err != nil { // the replay's first round trip
		t.Fatal(err)
	}
	w, err := c.WatchQuery(workload.Sum, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetLatency(50 * time.Millisecond)
	p.Sever()
	eventually(t, "the replay starts", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reconnecting && !c.down
	})
	w.Close()
	waitReconnects(t, c, 1)
	p.SetLatency(0)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "no standing query left on the server", func() bool { return srv.Stats().Queries == 0 })
}

// TestWatchQueryRacesQueryReplay: a standing query registered while a
// reconnect replays the session must be registered on the new connection
// once — by its own call or by the replay, never by both, since the server
// refuses a QID the connection already has live. Callers loop WatchQuery
// while the proxy is severed twenty times; each call must succeed or fail
// with the stream's loss, and every sever must cost exactly one reconnect.
// Once all the watches are closed the server holds no standing query.
func TestWatchQueryRacesQueryReplay(t *testing.T) {
	srv, addr := newServer(t)
	const keys, callers, severs = 256, 4, 20
	all := make([]int, keys)
	for k := range all {
		all[k] = k
		srv.SetInitial(k, float64(k))
	}
	p, c := proxied(t, addr, Config{CacheSize: keys, Reconnect: fastRedial})
	if err := c.SubscribeMulti(all); err != nil { // a replay of many keys widens the window
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, err := c.WatchQuery(workload.Sum, 1, 0, 1)
				if err != nil {
					if !errors.Is(err, aperrs.ErrConnLost) {
						t.Errorf("WatchQuery: %v, want success or ErrConnLost", err)
						return
					}
					runtime.Gosched() // let the redial run between retries
					continue
				}
				w.Close()
			}
		}()
	}
	for i := 1; i <= severs; i++ {
		p.Sever()
		waitReconnects(t, c, i)
	}
	close(stop)
	wg.Wait()
	if n := c.Stats().Reconnects; n != severs {
		t.Errorf("%d reconnects for %d severs, want one each", n, severs)
	}
	// Every watch is closed: an unregister that overtook the replay of its
	// query must not leave that query live. A Ping's reply follows every
	// unregister sent before it.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "no standing query left on the server", func() bool { return srv.Stats().Queries == 0 })
}
