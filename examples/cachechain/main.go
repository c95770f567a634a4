// Cachechain demonstrates the multi-level caching extension (the paper's
// Section 5 future work): a sensor's value flows through a chain of three
// caches — think device-edge-region — each holding an interval whose width
// its own adaptive controller sets. Updates propagate only as far up the
// chain as they invalidate; queries descend only as far down as their
// precision constraint requires.
//
// Run with:
//
//	go run ./examples/cachechain
package main

import (
	"fmt"
	"math"
	"math/rand"

	"apcache/internal/core"
	"apcache/internal/study/hierarchy"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	h, err := hierarchy.New(hierarchy.Config{
		Levels: 3, // device -> edge -> region
		Params: core.Params{
			Cvr: 1, Cqr: 2, Alpha: 1,
			Lambda0: 0, Lambda1: math.Inf(1),
		},
		InitialWidth: 4,
		RNG:          rng,
	})
	if err != nil {
		panic(err)
	}
	h.Track(0, 100)

	levelName := []string{"device", "edge", "region"}
	show := func(when string) {
		fmt.Printf("%s:\n", when)
		for l := 0; l < 3; l++ {
			iv, _ := h.At(l, 0)
			fmt.Printf("  %-6s %v (width %.3g)\n", levelName[l], iv, iv.Width())
		}
	}
	show("initial chain")

	// The sensor fluctuates for a while; watch how many levels each update
	// actually touches.
	v := 100.0
	hops := 0
	for i := 0; i < 500; i++ {
		v += rng.Float64()*6 - 3
		hops += h.Set(0, v)
	}
	fmt.Printf("\n500 updates propagated %d refresh hops (%.2f levels per update on average)\n",
		hops, float64(hops)/500)
	show("after update pressure")

	// Queries of decreasing tolerance descend further down the chain.
	fmt.Println()
	for _, delta := range []float64{200, 20, 0} {
		before := h.Stats().QueryHops
		ans := h.Read(0, delta)
		descended := h.Stats().QueryHops - before
		fmt.Printf("read with delta=%-4g -> %v after descending %d level(s)\n", delta, ans, descended)
	}

	st := h.Stats()
	fmt.Printf("\ntotals: %d value hops, %d query hops, cost %.4g\n",
		st.ValueHops, st.QueryHops, st.Cost)
}
