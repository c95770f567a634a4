// Netmonitor reproduces the paper's motivating application: a monitoring
// station caches per-host traffic levels as interval approximations and
// answers "total traffic over these hosts" (SUM) and "most loaded host"
// (MAX) queries with precision guarantees, while the hosts' levels replay a
// bursty wide-area traffic trace.
//
// The example runs the same scenario twice — once with the upper threshold
// lambda1 = lambda0 (exact caching special case) and once with lambda1 = inf
// (full adaptive precision) — and prints the refresh-cost comparison, the
// shape behind Figures 7-11 of the paper.
//
// A third run replays the adaptive-precision scenario over loopback TCP
// with the batched wire protocol (Hello handshake, ReadMulti query
// fetches, coalesced push batches), printing the frame counts so the
// batching is visible: frames stay far below the refresh/fetch totals. The
// networked run also demonstrates the API v1 surface: queries run under a
// context deadline via QueryCtx, and a Watch stream observes the pushed
// refreshes of the four busiest hosts — the monitoring dashboard the
// paper's scenario implies, without polling. Halfway through the replay the
// server is killed and restarted: the client's ReconnectPolicy redials,
// replays all subscriptions, and the Watch stream reports the outage as
// Disconnected/Reconnected events instead of dying.
//
// Run with:
//
//	go run ./examples/netmonitor
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"apcache"
	"apcache/internal/study/trace"
)

const (
	hosts    = 20
	duration = 900 // seconds of trace to replay
	tq       = 1   // seconds between queries
	davg     = 50_000
	cvr, cqr = 1.0, 2.0
)

func main() {
	tr, err := trace.Generate(trace.Config{
		Hosts: hosts * 2, Duration: duration, Window: 60,
		MaxRate: trace.DefaultMaxRate, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	top := tr.TopN(hosts)

	fmt.Printf("replaying %d hosts x %d seconds of synthetic wide-area traffic\n\n", hosts, duration)
	for _, setting := range []struct {
		name    string
		lambda1 float64
	}{
		{"lambda1 = lambda0 (exact-or-nothing)", 1000},
		{"lambda1 = inf (adaptive precision)", math.Inf(1)},
	} {
		cost := runScenario(top, setting.lambda1)
		fmt.Printf("%-40s cost rate %.4g per second\n", setting.name, cost)
	}
	fmt.Println("\nwith davg > 0 the adaptive-precision setting should win (paper Figs 10-11)")

	fmt.Println()
	runNetworked(top)
}

// runScenario replays the trace against one cache configuration and returns
// the average refresh cost per simulated second.
func runScenario(tr *trace.Trace, lambda1 float64) float64 {
	store, err := apcache.NewStore(apcache.Options{
		Params: apcache.Params{
			Cvr: cvr, Cqr: cqr, Alpha: 1,
			Lambda0: 1000, Lambda1: lambda1,
		},
		InitialWidth: 10_000,
		Seed:         3,
		Shards:       1, // single-threaded replay; sharding would only split the cache
	})
	if err != nil {
		panic(err)
	}
	for h := 0; h < tr.Hosts(); h++ {
		store.Track(h, tr.Host(h)[0])
	}

	rng := rand.New(rand.NewSource(5))
	queries := 0
	for t := 1; t < tr.Duration(); t++ {
		for h := 0; h < tr.Hosts(); h++ {
			store.Set(h, tr.Host(h)[t])
		}
		if t%tq == 0 {
			// Alternate SUM and MAX over 10 random hosts.
			keys := rng.Perm(tr.Hosts())[:10]
			kind := apcache.Sum
			if queries%2 == 1 {
				kind = apcache.Max
			}
			delta := davg * (0.5 + rng.Float64()) // sigma = 0.5
			if _, err := store.Do(apcache.Query{Kind: kind, Keys: keys, Delta: delta}); err != nil {
				panic(err)
			}
			queries++
		}
	}
	st := store.Stats()
	return st.Cost / float64(tr.Duration())
}

// runNetworked replays the adaptive-precision scenario with the monitoring
// station and the hosts on opposite ends of a TCP connection, using the
// batched protocol: one SubscribeMulti registers every host, each query's
// refresh set travels as one ReadMulti, and bursts of value-initiated pushes
// coalesce into RefreshBatch frames inside the adaptive flush window
// (FlushInterval caps the window; the per-connection EWMA of push gaps
// shrinks it so sparse pushes flush immediately).
func runNetworked(tr *trace.Trace) {
	srv, addr, err := serveHosts("127.0.0.1:0", tr, 0)
	if err != nil {
		panic(err)
	}
	defer func() { srv.Close() }() // closure: srv is swapped by the mid-replay restart

	c, err := apcache.DialConfig(addr, apcache.ClientConfig{
		CacheSize: tr.Hosts(),
		// Survive the mid-replay restart below: redial with backoff and
		// replay every subscription against the replacement server.
		Reconnect: apcache.ReconnectPolicy{
			Enabled:   true,
			BaseDelay: 5 * time.Millisecond,
			MaxDelay:  100 * time.Millisecond,
		},
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	all := make([]int, tr.Hosts())
	for h := range all {
		all[h] = h
	}
	if err := c.SubscribeMulti(all); err != nil {
		panic(err)
	}

	// Watch the four busiest hosts (the trace is sorted by total traffic):
	// every pushed refresh for them streams to this handle, with per-key
	// latest-wins coalescing if we fall behind.
	w, err := c.Watch(0, 1, 2, 3)
	if err != nil {
		panic(err)
	}
	type watchTally struct{ refreshes, events int }
	observed := make(chan watchTally, 1)
	go func() {
		var tally watchTally
		for u := range w.Updates() {
			if u.Event != apcache.EventRefresh {
				tally.events++ // Disconnected/Reconnected around the restart
			} else {
				tally.refreshes++
			}
		}
		observed <- tally
	}()

	rng := rand.New(rand.NewSource(5))
	queries, lost := 0, 0
	restartAt := tr.Duration() / 2
	for t := 1; t < tr.Duration(); t++ {
		if t == restartAt {
			// Kill the server mid-replay and bring a replacement up on the
			// same port, seeded with the trace's current values. The client
			// is none the wiser: its redial loop replays the subscriptions.
			prev := c.Stats().Reconnects
			srv.Close()
			srv = mustRestart(addr, tr, t)
			for waited := 0; c.Stats().Reconnects <= prev; waited++ {
				if waited > 5000 {
					panic("client never reconnected to the restarted server")
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		for h := 0; h < tr.Hosts(); h++ {
			srv.Set(h, tr.Host(h)[t])
		}
		if t%tq == 0 {
			keys := rng.Perm(tr.Hosts())[:10]
			kind := apcache.Sum
			if queries%2 == 1 {
				kind = apcache.Max
			}
			delta := davg * (0.5 + rng.Float64())
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := c.QueryCtx(ctx, apcache.Query{Kind: kind, Keys: keys, Delta: delta})
			cancel()
			if err != nil {
				if errors.Is(err, apcache.ErrConnLost) {
					lost++ // outage window: the redial loop owns recovery
					continue
				}
				panic(err)
			}
			queries++
		}
	}
	w.Close()
	watched := <-observed
	st := c.Stats()
	cost := float64(st.ValueRefreshes)*cvr + float64(st.QueryRefreshes)*cqr
	fmt.Printf("networked (batched protocol)             cost rate %.4g per second\n",
		cost/float64(tr.Duration()))
	fmt.Printf("  %d refreshes (%d pushed, %d fetched) crossed the wire in %d frames received / %d sent\n",
		st.ValueRefreshes+st.QueryRefreshes, st.ValueRefreshes, st.QueryRefreshes,
		st.FramesReceived, st.FramesSent)
	fmt.Printf("  the Watch over the 4 busiest hosts streamed %d updates (%d coalesced latest-wins)\n",
		watched.refreshes, w.Coalesced())
	fmt.Printf("  survived a mid-replay server restart: %d reconnect(s), %d queries lost to the outage, %d connectivity events on the Watch\n",
		st.Reconnects, lost, watched.events)
}

// serveHosts starts a server on addr seeded with every host's traffic level
// at trace second t, returning the bound address as a string.
func serveHosts(addr string, tr *trace.Trace, t int) (*apcache.Server, string, error) {
	srv, bound, err := apcache.Serve(addr, apcache.ServerConfig{
		Params: apcache.Params{
			Cvr: cvr, Cqr: cqr, Alpha: 1,
			Lambda0: 1000, Lambda1: math.Inf(1),
		},
		InitialWidth:  10_000,
		Seed:          3,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		return nil, "", err
	}
	for h := 0; h < tr.Hosts(); h++ {
		srv.SetInitial(h, tr.Host(h)[t])
	}
	return srv, bound.String(), nil
}

// mustRestart rebinds a replacement server on the address the dead one
// held, retrying briefly while the kernel releases the port.
func mustRestart(addr string, tr *trace.Trace, t int) *apcache.Server {
	var lastErr error
	for attempt := 0; attempt < 200; attempt++ {
		srv, _, err := serveHosts(addr, tr, t)
		if err == nil {
			return srv
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	panic(lastErr)
}
