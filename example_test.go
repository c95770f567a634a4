package apcache_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"apcache"
)

// ExampleStore caches three values as adaptive-precision intervals, shows the
// widths adapting to update pressure (key 0 widens) and query pressure (key
// 2 narrows), and runs bounded-aggregate queries against the cache. It is
// seeded and runs on one shard, so it prints the same bytes everywhere.
func ExampleStore() {
	store, err := apcache.NewStore(apcache.Options{
		// Cvr=1 (update push), Cqr=2 (request+response), lambda0=0.01.
		Params:       apcache.DefaultParams(1, 2, 0.01),
		InitialWidth: 4,
		Seed:         7,
		Shards:       1, // pin the layout so the fixed seed reproduces everywhere
	})
	if err != nil {
		panic(err)
	}

	// Track three sensors starting at known values.
	for key, v := range []float64{20, 50, 80} {
		store.Track(key, v)
	}

	fmt.Println("-- initial approximations --")
	for key := 0; key < 3; key++ {
		iv, _ := store.Get(key)
		fmt.Printf("sensor %d cached as %v (width %.3g)\n", key, iv, iv.Width())
	}

	// Sensor 0 fluctuates wildly: its interval should widen so that most
	// updates stay inside it.
	rng := rand.New(rand.NewSource(1))
	v := 20.0
	for i := 0; i < 200; i++ {
		v += rng.Float64()*10 - 5
		store.Set(0, v)
	}
	// Sensor 2 is queried for exact values repeatedly: its interval should
	// narrow.
	for i := 0; i < 6; i++ {
		if _, err := store.ReadExact(2); err != nil {
			panic(err)
		}
	}

	fmt.Println("\n-- after update pressure on 0 and query pressure on 2 --")
	for key := 0; key < 3; key++ {
		iv, _ := store.Get(key)
		fmt.Printf("sensor %d cached as %v (width %.3g)\n", key, iv, iv.Width())
	}

	// Bounded-aggregate queries: the cache answers as much as the
	// precision constraint allows and fetches the rest.
	loose, _ := store.Do(apcache.Query{Kind: apcache.Sum, Keys: []int{0, 1, 2}, Delta: 100})
	fmt.Printf("\nSUM with delta=100: %v, fetched %d values\n", loose.Result, len(loose.Refreshed))

	tight, _ := store.Do(apcache.Query{Kind: apcache.Sum, Keys: []int{0, 1, 2}, Delta: 1})
	fmt.Printf("SUM with delta=1:   %v, fetched %d values\n", tight.Result, len(tight.Refreshed))

	exactMax, _ := store.Do(apcache.Query{Kind: apcache.Max, Keys: []int{0, 1, 2}, Delta: 0})
	fmt.Printf("exact MAX:          %v, fetched %d values (interval endpoints eliminate candidates)\n",
		exactMax.Result, len(exactMax.Refreshed))

	st := store.Stats()
	fmt.Printf("\ntotals: %d value-initiated, %d query-initiated refreshes, cost %.4g\n",
		st.ValueRefreshes, st.QueryRefreshes, st.Cost)
	// Output:
	// -- initial approximations --
	// sensor 0 cached as [18, 22] (width 4)
	// sensor 1 cached as [48, 52] (width 4)
	// sensor 2 cached as [78, 82] (width 4)
	//
	// -- after update pressure on 0 and query pressure on 2 --
	// sensor 0 cached as [-37.151197551527304, 90.8488024484727] (width 128)
	// sensor 1 cached as [48, 52] (width 4)
	// sensor 2 cached as [79.96875, 80.03125] (width 0.0625)
	//
	// SUM with delta=100: [98.32592975081693, 102.38842975081693], fetched 1 values
	// SUM with delta=1:   [100.32592975081693, 100.38842975081693], fetched 2 values
	// exact MAX:          [80, 80], fetched 1 values (interval endpoints eliminate candidates)
	//
	// totals: 5 value-initiated, 10 query-initiated refreshes, cost 25
}

// ExampleStore_Watch shows the in-process Watch stream: the handle opens
// with the key's current approximation and then delivers every refresh the
// store installs, with per-key latest-wins coalescing if the consumer lags.
func ExampleStore_Watch() {
	s, err := apcache.NewStore(apcache.Options{InitialWidth: 10})
	if err != nil {
		panic(err)
	}
	s.Track(1, 100)

	w, err := s.Watch(1)
	if err != nil {
		panic(err)
	}
	defer w.Close()

	seed := <-w.Updates() // the current approximation
	fmt.Println("seed contains 100:", seed.Interval.Valid(100))

	s.Set(1, 1000) // escapes the width-10 interval: a refresh streams out
	for u := range w.Updates() {
		if u.Interval.Valid(1000) {
			fmt.Println("refresh contains 1000:", true)
			break
		}
	}
	// Output:
	// seed contains 100: true
	// refresh contains 1000: true
}

// ExampleClient_QueryCtx shows a context-bounded bounded-aggregate query
// over the wire and the typed error taxonomy surviving the TCP boundary.
func ExampleClient_QueryCtx() {
	srv, addr, err := apcache.Serve("127.0.0.1:0", apcache.ServerConfig{
		Params:       apcache.DefaultParams(1, 2, 0),
		InitialWidth: 10,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	for k := 0; k < 4; k++ {
		srv.SetInitial(k, float64(k*10))
	}

	c, err := apcache.Dial(addr.String(), 4)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ans, err := c.QueryCtx(ctx, apcache.Query{
		Kind: apcache.Sum, Keys: []int{0, 1, 2, 3}, Delta: 0,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("exact sum:", ans.Result.Lo)

	// The exact read left every key cached, so a loose query is answered
	// from the client's own intervals without a round trip.
	ans, err = c.QueryCtx(ctx, apcache.Query{
		Kind: apcache.Sum, Keys: []int{0, 1, 2, 3}, Delta: 1000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("loose sum fetched nothing:", len(ans.Refreshed) == 0)

	// A miss on the remote server matches the same sentinel as in-process.
	_, err = c.ReadExactCtx(ctx, 99)
	fmt.Println("typed miss across the wire:", errors.Is(err, apcache.ErrUnknownKey))
	// Output:
	// exact sum: 60
	// loose sum fetched nothing: true
	// typed miss across the wire: true
}

// ExampleClient_WatchQuery registers a standing SUM once; the server then
// maintains it and pushes a new answer only when the aggregate may have left
// the delta-wide envelope the client holds, so the client never re-runs the
// query.
func ExampleClient_WatchQuery() {
	srv, addr, err := apcache.Serve("127.0.0.1:0", apcache.ServerConfig{
		Params:       apcache.DefaultParams(1, 2, 0.01),
		InitialWidth: 2,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	load := []float64{40, 50, 60, 70}
	for k, v := range load {
		srv.SetInitial(k, v)
	}

	c, err := apcache.Dial(addr.String(), len(load))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	const delta = 8
	total, err := c.WatchQuery(apcache.Sum, delta, 0, 1, 2, 3)
	if err != nil {
		panic(err)
	}
	defer total.Close()

	first := <-total.Updates() // the registration's initial answer
	fmt.Println("first answer contains the sum:", first.Interval.Valid(220))
	fmt.Println("width within delta:", first.Interval.Width() <= delta)

	srv.Set(3, 170) // the sum moves to 320, far outside the envelope
	for u := range total.Updates() {
		if u.Interval.Valid(320) {
			fmt.Println("a pushed answer contains the new sum:", true)
			break
		}
	}
	// Output:
	// first answer contains the sum: true
	// width within delta: true
	// a pushed answer contains the new sum: true
}

// ExampleReconnectPolicy shows the fault-tolerant session layer: a client
// with reconnection enabled rides out a server restart. Calls that hit the
// outage window fail with the typed apcache.ErrConnLost — the signal to
// retry — and once the replacement server is up the redial loop replays the
// subscription, so the retried read succeeds without any re-Subscribe.
func ExampleReconnectPolicy() {
	srv, addr, err := apcache.Serve("127.0.0.1:0", apcache.ServerConfig{
		Params:       apcache.DefaultParams(1, 2, 0),
		InitialWidth: 10,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	srv.SetInitial(0, 42)

	c, err := apcache.DialConfig(addr.String(), apcache.ClientConfig{
		CacheSize: 4,
		Reconnect: apcache.ReconnectPolicy{
			Enabled:   true,
			BaseDelay: 5 * time.Millisecond, // exponential backoff with full jitter
			MaxDelay:  100 * time.Millisecond,
		},
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	if err := c.Subscribe(0); err != nil {
		panic(err)
	}

	// Restart the server on the same port. The client notices the loss and
	// starts redialing in the background.
	srv.Close()
	srv2, err := restartOn(addr.String())
	if err != nil {
		panic(err)
	}
	defer srv2.Close()
	srv2.SetInitial(0, 43)

	// Retry loop: ErrConnLost is the transient, typed "try again" error.
	for {
		v, err := c.ReadExact(0)
		if errors.Is(err, apcache.ErrConnLost) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			panic(err)
		}
		fmt.Println("read after restart:", v)
		break
	}
	fmt.Println("reconnects:", c.Stats().Reconnects)
	// Output:
	// read after restart: 43
	// reconnects: 1
}

// restartOn rebinds a fresh server on a just-released address, retrying
// briefly while the kernel frees the port.
func restartOn(addr string) (srv *apcache.Server, err error) {
	for attempt := 0; attempt < 200; attempt++ {
		srv, _, err = apcache.Serve(addr, apcache.ServerConfig{
			Params:       apcache.DefaultParams(1, 2, 0),
			InitialWidth: 10,
			Seed:         2,
		})
		if err == nil {
			return srv, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, err
}
