// Continuous-query integration tests: standing bounded aggregates
// registered over the wire, their answer streams, budget soundness under
// random-walk workloads, refresh-traffic advantage over polling, and
// fault-tolerance across reconnects.
package client

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"apcache/internal/core"
	"apcache/internal/server"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// drainAnswers consumes every update currently queued on the watch,
// returning the newest answer seen (ok=false if none arrived).
func drainAnswers(w *watch.Watch) (last watch.Update, ok bool) {
	for {
		select {
		case u, open := <-w.Updates():
			if !open {
				return last, ok
			}
			if u.Event == watch.EventRefresh {
				last, ok = u, true
			}
		default:
			return last, ok
		}
	}
}

// TestWatchQuerySoundness registers SUM/MAX/AVG queries, drives random
// walks through the server, and checks the budget contract on both
// connection cores: every delivered answer interval has width at most
// Delta (exactly: the envelope is cut to the budget in float arithmetic),
// and at quiescent checkpoints the answer contains the true aggregate.
func TestWatchQuerySoundness(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		srv, addr := newServerMode(t, mode)
		const nKeys = 16
		const delta = 24.0
		values := make([]float64, nKeys)
		keys := make([]int, nKeys)
		for k := 0; k < nKeys; k++ {
			values[k] = float64(100 + k)
			srv.SetInitial(k, values[k])
			keys[k] = k
		}
		c := dial(t, addr, nKeys)
		for _, q := range []struct {
			kind workload.AggKind
			agg  func([]float64) float64
		}{
			{workload.Sum, func(v []float64) float64 {
				s := 0.0
				for _, x := range v {
					s += x
				}
				return s
			}},
			{workload.Max, func(v []float64) float64 {
				m := math.Inf(-1)
				for _, x := range v {
					m = math.Max(m, x)
				}
				return m
			}},
			{workload.Avg, func(v []float64) float64 {
				s := 0.0
				for _, x := range v {
					s += x
				}
				return s / float64(len(v))
			}},
		} {
			t.Run(q.kind.String(), func(t *testing.T) {
				w, err := c.WatchQueryCtx(context.Background(), q.kind, delta, keys...)
				if err != nil {
					t.Fatalf("WatchQuery(%v): %v", q.kind, err)
				}
				defer w.Close()
				var last watch.Update
				var seen bool
				rng := rand.New(rand.NewSource(42))
				for step := 0; step < 400; step++ {
					k := rng.Intn(nKeys)
					values[k] += rng.Float64()*8 - 4
					srv.Set(k, values[k])
					if step%100 != 99 {
						continue
					}
					// Quiescent checkpoint: once in-flight updates land, the
					// newest delivered answer is the engine's current one,
					// which must contain the true aggregate within budget.
					truth := q.agg(values)
					deadline := time.Now().Add(5 * time.Second)
					for {
						if u, ok := drainAnswers(w); ok {
							last, seen = u, true
						}
						if seen {
							if last.Interval.Width() > delta {
								t.Fatalf("step %d: answer width %g > delta %g", step, last.Interval.Width(), delta)
							}
							if last.Interval.Valid(truth) {
								break
							}
						}
						if time.Now().After(deadline) {
							t.Fatalf("step %d: answer %v (seen=%v) never converged to contain truth %g", step, last.Interval, seen, truth)
						}
						time.Sleep(time.Millisecond)
					}
				}
			})
		}
	})
}

// TestWatchQueryExactAtZeroDelta: a budget of 0 asks for the aggregate
// itself. Every member key must ship exact values, so every delivered
// answer — the registration's and each one after a Set — is 0 wide and is
// the true aggregate. Integer values keep every aggregate exact in floats.
func TestWatchQueryExactAtZeroDelta(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		srv, addr := newServerMode(t, mode)
		const nKeys = 4
		values := make([]float64, nKeys)
		keys := make([]int, nKeys)
		for k := range keys {
			values[k] = float64(100 + k)
			srv.SetInitial(k, values[k])
			keys[k] = k
		}
		c := dial(t, addr, nKeys)
		aggs := map[workload.AggKind]func([]float64) float64{
			workload.Sum: func(v []float64) float64 {
				s := 0.0
				for _, x := range v {
					s += x
				}
				return s
			},
			workload.Max: func(v []float64) float64 { return slices.Max(v) },
			workload.Min: func(v []float64) float64 { return slices.Min(v) },
			workload.Avg: func(v []float64) float64 {
				s := 0.0
				for _, x := range v {
					s += x
				}
				return s / float64(len(v))
			},
		}
		for _, kind := range []workload.AggKind{workload.Sum, workload.Max, workload.Min, workload.Avg} {
			t.Run(kind.String(), func(t *testing.T) {
				w, err := c.WatchQueryCtx(context.Background(), kind, 0, keys...)
				if err != nil {
					t.Fatalf("WatchQuery(%v, 0): %v", kind, err)
				}
				defer w.Close()
				// await reads answers until one is the true aggregate,
				// failing on any answer wider than 0.
				await := func(when string) {
					t.Helper()
					truth := aggs[kind](values)
					timeout := time.After(5 * time.Second)
					for {
						select {
						case u, open := <-w.Updates():
							if !open {
								t.Fatalf("%s: watch closed: %v", when, w.Err())
							}
							if u.Event != watch.EventRefresh {
								continue
							}
							if wd := u.Interval.Width(); wd != 0 {
								t.Fatalf("%s: answer %v is %g wide at delta 0", when, u.Interval, wd)
							}
							if u.Interval.Valid(truth) {
								return
							}
						case <-timeout:
							t.Fatalf("%s: no answer equal to the true aggregate %g", when, truth)
						}
					}
				}
				await("registration")
				// Each Set lifts the minimum key past the maximum, so every
				// aggregate changes and must be re-sent.
				for i := 0; i < 6; i++ {
					k := slices.Index(values, slices.Min(values))
					values[k] = slices.Max(values) + 1
					srv.Set(k, values[k])
					await(fmt.Sprintf("after Set %d", i))
				}
			})
		}
	})
}

// TestWatchQueryRefusesUnknownKind: a kind outside SUM..AVG is refused
// before anything is sent. Sent, a kind past a byte's range would be
// truncated into a valid one and served as the wrong aggregate, and one the
// server cannot decode would cost the whole connection, failing every other
// call on it.
func TestWatchQueryRefusesUnknownKind(t *testing.T) {
	srv, addr := newServer(t)
	for k := 0; k < 4; k++ {
		srv.SetInitial(k, float64(10*k))
	}
	c := dial(t, addr, 4)
	for _, kind := range []workload.AggKind{-1, 4, 7, 257} {
		if w, err := c.WatchQueryCtx(context.Background(), kind, 1, 0, 1, 2, 3); err == nil {
			w.Close()
			t.Errorf("WatchQuery(%v) registered", kind)
		}
	}
	w, err := c.WatchQueryCtx(context.Background(), workload.Sum, 1, 0, 1, 2, 3)
	if err != nil {
		t.Fatalf("WatchQuery(SUM) after the refusals: %v", err)
	}
	defer w.Close()
	if st := c.Stats(); st.Queries != 1 {
		t.Errorf("%d queries held for replay, want 1", st.Queries)
	}
}

// TestStandingQueryBeatsPolling is the acceptance property of the CQ
// engine: a standing SUM over 64 random-walk keys costs an order of
// magnitude fewer refresh messages than the poll-equivalent Query loop at
// the same precision budget. The poller subscribes to the keys (the
// cheapest polling setup: pushes keep its cache warm) and runs one bounded
// Query per update step; the watcher holds one registration and receives an
// answer only when the aggregate has left the Delta-wide envelope it holds.
func TestStandingQueryBeatsPolling(t *testing.T) {
	srv, addr := newServer(t)
	const nKeys = 64
	const delta = 64.0
	values := make([]float64, nKeys)
	keys := make([]int, nKeys)
	walks := make([]*workload.RandomWalk, nKeys)
	for k := 0; k < nKeys; k++ {
		values[k] = 100
		srv.SetInitial(k, values[k])
		keys[k] = k
		walks[k] = workload.NewRandomWalk(values[k], 0.5, 4, rand.New(rand.NewSource(int64(k))))
	}

	watcher := dial(t, addr, nKeys)
	w, err := watcher.WatchQueryCtx(context.Background(), workload.Sum, delta, keys...)
	if err != nil {
		t.Fatalf("WatchQuery: %v", err)
	}
	defer w.Close()

	poller := dial(t, addr, nKeys)
	if err := poller.SubscribeMulti(keys); err != nil {
		t.Fatalf("SubscribeMulti: %v", err)
	}

	q := workload.Query{Kind: workload.Sum, Keys: keys, Delta: delta}
	const steps = 512
	for step := 0; step < steps; step++ {
		k := step % nKeys
		srv.Set(k, walks[k].Step())
		if step%4 == 3 {
			if _, err := poller.Query(q); err != nil {
				t.Fatalf("poll Query: %v", err)
			}
		}
	}
	// Quiesce so in-flight pushes land before the traffic comparison.
	time.Sleep(100 * time.Millisecond)

	ws, ps := watcher.Stats(), poller.Stats()
	cqTraffic := ws.FramesReceived
	pollTraffic := ps.ValueRefreshes + ps.QueryRefreshes
	t.Logf("standing CQ: %d frames (%d value refreshes); poll loop: %d refreshes (%d pushes + %d reads)",
		cqTraffic, ws.ValueRefreshes, pollTraffic, ps.ValueRefreshes, ps.QueryRefreshes)
	if ws.ValueRefreshes != 0 {
		t.Errorf("CQ watcher received %d per-key pushes; the aggregate should be maintained server-side", ws.ValueRefreshes)
	}
	if cqTraffic*10 >= pollTraffic {
		t.Errorf("standing CQ traffic %d not an order of magnitude below poll traffic %d", cqTraffic, pollTraffic)
	}
	// The same economics read from the running server: key refreshes the
	// engine absorbed in process against the answers it let onto the wire.
	st := srv.Stats()
	t.Logf("server: %d key refreshes observed, %d answers pushed", st.QueryObserves, st.QueryUpdates)
	if st.QueryObserves < steps/4 || st.QueryUpdates*10 >= st.QueryObserves || st.QueryUpdates >= cqTraffic {
		t.Errorf("Stats: %d observes, %d updates for %d steps and %d frames; want the envelope to absorb nine in ten",
			st.QueryObserves, st.QueryUpdates, steps, cqTraffic)
	}
	if ws.Queries != 1 {
		t.Errorf("watcher Stats.Queries = %d, want 1", ws.Queries)
	}
}

// TestStandingQuerySurvivesServerRestart is the chaos property: a
// registered continuous query rides a server kill + reconnect via
// registration replay — the watch observes the outage as a
// Disconnected/Reconnected pair, then resumes delivering answers from the
// replacement server, never failing.
func TestStandingQuerySurvivesServerRestart(t *testing.T) {
	srv1, addr1 := newServer(t)
	srv1.SetInitial(0, 10)
	srv1.SetInitial(1, 20)
	p, c := proxied(t, addr1, Config{CacheSize: 8, Reconnect: ReconnectPolicy{
		Enabled:   true,
		BaseDelay: time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
	}})
	w, err := c.WatchQuery(workload.Sum, 6.0, 0, 1)
	if err != nil {
		t.Fatalf("WatchQuery: %v", err)
	}
	defer w.Close()
	srv1.Close()
	p.Sever()

	srv2 := server.New(server.Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         3,
	})
	srv2.SetInitial(0, 100)
	srv2.SetInitial(1, 200)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	p.SetTarget(addr2.String())

	// The replayed registration's ack re-seeds the answer from the new
	// server's values; drive one more update for good measure.
	sawDisc, sawRecon := false, false
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv2.Set(0, 100+float64(time.Now().UnixNano()%7))
		select {
		case u, ok := <-w.Updates():
			if !ok {
				t.Fatalf("query watch died across restart: %v", w.Err())
			}
			switch u.Event {
			case watch.EventDisconnected:
				sawDisc = true
			case watch.EventReconnected:
				sawRecon = true
			case watch.EventRefresh:
				if sawRecon && u.Interval.Lo >= 250 {
					if u.Interval.Width() > 6.0+1e-9 {
						t.Fatalf("post-restart answer width %g > delta", u.Interval.Width())
					}
					if !sawDisc {
						t.Errorf("no EventDisconnected before recovery")
					}
					if c.Stats().Queries != 1 {
						t.Errorf("Stats.Queries = %d after replay, want 1", c.Stats().Queries)
					}
					return
				}
			}
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no post-restart answer (sawDisc=%v sawRecon=%v)", sawDisc, sawRecon)
		}
	}
}
