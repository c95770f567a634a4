// Loadwatch demonstrates continuous queries: instead of re-running a bounded
// aggregate against the cache, the client registers it once and the server
// maintains the answer incrementally, pushing an update only when the
// aggregate leaves the interval the client holds. One standing SUM tracks
// total fleet load within +/- 4 units; one standing MAX tracks the hottest
// node within +/- 1. Neither
// costs the client any per-update query work — compare stockticker, which
// re-executes its SUM every round.
//
// Run with:
//
//	go run ./examples/loadwatch
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"apcache"
)

const (
	nodes = 12
	ticks = 120
)

func main() {
	srv, addr, err := apcache.Serve("127.0.0.1:0", apcache.ServerConfig{
		Params:       apcache.DefaultParams(1, 2, 0.01),
		InitialWidth: 2,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(7))
	load := make([]float64, nodes)
	keys := make([]int, nodes)
	for k := range load {
		load[k] = 40 + rng.Float64()*20
		srv.SetInitial(k, load[k])
		keys[k] = k
	}

	cli, err := apcache.Dial(addr.String(), nodes)
	if err != nil {
		panic(err)
	}
	defer cli.Close()

	total, err := cli.WatchQuery(apcache.Sum, 8, keys...)
	if err != nil {
		panic(err)
	}
	hottest, err := cli.WatchQuery(apcache.Max, 2, keys...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("watching SUM and MAX over %d nodes on %s\n\n", nodes, addr)

	// Consume both answer streams as they arrive; the consumers below never
	// query — every line was pushed by the server because the standing
	// answer moved.
	var wg sync.WaitGroup
	consume := func(name string, w *apcache.Watch, count *int) {
		defer wg.Done()
		for u := range w.Updates() {
			*count++
			if *count%10 == 1 {
				fmt.Printf("%-12s %7.2f +/- %.2f\n", name, u.Value, u.Interval.Width()/2)
			}
		}
	}
	var sums, maxes int
	wg.Add(2)
	go consume("total load", total, &sums)
	go consume("hottest node", hottest, &maxes)

	// Load drifts; one node spikes halfway through. The adaptive budget
	// re-split shifts precision toward the spiking key, so the quiet nodes'
	// wider shares keep the total update rate down.
	for t := 0; t < ticks; t++ {
		for k := range load {
			load[k] += rng.NormFloat64() * 0.6
			if k == 3 && t >= ticks/2 {
				load[k] += 1.5
			}
			srv.Set(k, load[k])
		}
		time.Sleep(2 * time.Millisecond) // let pushes propagate
	}
	total.Close()
	hottest.Close()
	wg.Wait()
	fmt.Printf("\n%d SUM updates, %d MAX updates pushed for %d source ticks\n",
		sums, maxes, ticks*nodes)
}
