package client

// Edge cases of the fault-tolerant session layer: deterministic backoff
// bounds, Close racing an active redial loop, a replacement peer on another
// protocol version, degraded stale reads during an
// outage, redial exhaustion, and desired-state bookkeeping for keys
// unsubscribed while down. The happy-path restart scenario (full replay
// under 1k subscriptions) lives in the root chaos suite.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/faultnet"
	"apcache/internal/netproto"
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

// TestStaleReadsWidenDuringOutage: cached approximations stay readable
// during an outage, flagged stale, and with StaleWidthGrowth set their
// intervals widen at that many units/second — uncertainty about the
// unreachable source made explicit, midpoint untouched.
func TestStaleReadsWidenDuringOutage(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 50)
	p, c := proxied(t, addr, Config{
		CacheSize:        8,
		StaleWidthGrowth: 1000,
		// A huge backoff holds the outage open for the duration of the
		// test; Close must still cut the sleep short at cleanup.
		Reconnect: ReconnectPolicy{Enabled: true, BaseDelay: time.Hour, MaxDelay: time.Hour},
	})
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	ctx := context.Background()
	a0, ok := c.GetApprox(ctx, 0)
	if !ok || a0.Stale || a0.Age != 0 {
		t.Fatalf("healthy approx = %+v, %v; want fresh", a0, ok)
	}
	if st := c.Stats(); st.Degraded {
		t.Fatalf("healthy client reports Degraded")
	}
	mid0 := (a0.Interval.Lo + a0.Interval.Hi) / 2

	srv.Close()
	p.Sever()
	waitDown(t, c)

	a1, ok := c.GetApprox(ctx, 0)
	if !ok || !a1.Stale {
		t.Fatalf("outage approx = %+v, %v; want a stale read", a1, ok)
	}
	if a1.Age <= 0 {
		t.Fatalf("stale read carries age %v, want > 0", a1.Age)
	}
	if !c.Stats().Degraded {
		t.Fatalf("client in outage does not report Degraded")
	}
	time.Sleep(20 * time.Millisecond)
	a2, ok := c.GetApprox(ctx, 0)
	if !ok || !a2.Stale {
		t.Fatalf("second outage approx = %+v, %v; want stale", a2, ok)
	}
	if a2.Age <= a1.Age {
		t.Fatalf("age did not advance: %v then %v", a1.Age, a2.Age)
	}
	// 20ms at 1000 units/s is 20 units of extra width; allow generous
	// scheduling slack but demand real growth.
	if grew := a2.Interval.Width() - a1.Interval.Width(); grew < 5 {
		t.Fatalf("interval width grew %g over 20ms, want >= 5 (growth rate 1000/s)", grew)
	}
	if a2.Interval.Width() <= a0.Interval.Width() {
		t.Fatalf("stale width %g not wider than fresh width %g", a2.Interval.Width(), a0.Interval.Width())
	}
	if mid := (a2.Interval.Lo + a2.Interval.Hi) / 2; math.Abs(mid-mid0) > 1e-9 {
		t.Fatalf("stale widening moved the midpoint: %g -> %g", mid0, mid)
	}
	if !a2.Interval.Valid(50) {
		t.Fatalf("widened interval %v no longer contains the last known value", a2.Interval)
	}
	// A query plans on the same widened read, taken as one counted lookup.
	before := c.Stats().Cache
	ans, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0}, Delta: 1e9})
	if err != nil {
		t.Fatalf("Query answerable from the stale cache: %v", err)
	}
	if ans.Result.Width() < a2.Interval.Width() {
		t.Fatalf("query planned on width %g, narrower than the stale read's %g", ans.Result.Width(), a2.Interval.Width())
	}
	if after := c.Stats().Cache; after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("one-key query moved the lookup counters %+v -> %+v, want one hit", before, after)
	}
}

// TestStaleReadsFlaggedWithoutGrowth: with StaleWidthGrowth unset an outage
// read is the last-known interval at its last-known width — and says so:
// the flag does not depend on the widening knob.
func TestStaleReadsFlaggedWithoutGrowth(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 50)
	p, c := proxied(t, addr, Config{
		CacheSize: 8,
		Reconnect: ReconnectPolicy{Enabled: true, BaseDelay: time.Hour, MaxDelay: time.Hour},
	})
	if err := c.Subscribe(0); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	ctx := context.Background()
	a0, ok := c.GetApprox(ctx, 0)
	if !ok || a0.Stale || a0.Age != 0 {
		t.Fatalf("healthy approx = %+v, %v; want fresh", a0, ok)
	}
	srv.Close()
	p.Sever()
	waitDown(t, c)
	time.Sleep(5 * time.Millisecond)
	a1, ok := c.GetApprox(ctx, 0)
	if !ok || !a1.Stale || a1.Age <= 0 {
		t.Fatalf("outage approx = %+v, %v; want a stale read with its age", a1, ok)
	}
	if a1.Interval != a0.Interval {
		t.Errorf("outage interval %v, want the last-known %v unwidened", a1.Interval, a0.Interval)
	}
	if iv, ok := c.Get(0); !ok || iv != a0.Interval {
		t.Errorf("Get during the outage = %v, %v; want %v", iv, ok, a0.Interval)
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
// locally (the whole job is updating desired state) and the key must not be
// replayed to the replacement server.
func TestUnsubscribeDuringOutageNotReplayed(t *testing.T) {
	srv1, addr1 := newServer(t)
	srv1.SetInitial(0, 1)
	srv1.SetInitial(1, 2)
	p, c := proxied(t, addr1, Config{CacheSize: 8, Reconnect: ReconnectPolicy{
		Enabled:   true,
		BaseDelay: time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
	}})
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
	p, c := proxied(t, addr, Config{CacheSize: 8, Reconnect: ReconnectPolicy{
		Enabled:   true,
		BaseDelay: time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
	}})
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
	p, c := proxied(t, addr, Config{CacheSize: 1, Reconnect: ReconnectPolicy{
		Enabled:   true,
		BaseDelay: time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
	}})
	// Key 1 takes the slot at width 5; key 2, read at width 5, does not beat
	// it and is queued. Neither is in the Subscribe set.
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
	// key held; key 2 is neither held nor subscribed and is not replayed.
	if queued, seen := c.MuteState(); queued != 0 || seen != 2 {
		t.Fatalf("after the reconnect: %d queued, seen %d; want 0 and 2", queued, seen)
	}
	if _, err := c.ReadMulti([]int{1}); err != nil {
		t.Fatal(err)
	}
	if muted, mutes, refused := muteCounts(srv); muted+mutes+refused != 0 {
		t.Errorf("the old session's queue reached the new one: muted=%d mutes=%d refused=%d", muted, mutes, refused)
	}
}
