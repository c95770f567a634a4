package client

// Benchmarks of the networked hot path over loopback TCP, on both connection
// cores. The headline numbers are recorded in BENCH_net.json at the repo root
// (its proto=v1 rows are the retired one-frame-per-request dialect):
//
//	go test -run '^$' -bench 'BenchmarkNetPipeline|BenchmarkQueryFanout' -benchtime 2s ./internal/client

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"apcache/internal/core"
	"apcache/internal/server"
	"apcache/internal/workload"
)

func benchServer(b *testing.B, keys int, connMode string) (*server.Server, string) {
	b.Helper()
	// Alpha 0 freezes the widths at InitialWidth, so a Delta-0 query keeps
	// refetching every key on every iteration: the benchmark measures the
	// steady-state transport cost, not a workload that converges to
	// all-exact intervals and stops fetching.
	srv := server.New(server.Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 0, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         1,
		ConnMode:     connMode,
	})
	if connMode != "" && srv.ConnMode() != connMode {
		b.Skipf("conn mode %q unsupported on this platform", connMode)
	}
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, float64(k))
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func benchDial(b *testing.B, addr string, keys int) *Client {
	b.Helper()
	c, err := DialConfig(addr, Config{CacheSize: keys})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkNetPipeline drives the mixed workload — mostly single exact
// reads, with a fanout SUM query mixed in — from parallel goroutines over
// one connection: the writer sends backed-up reads with one write and each
// query's refresh set collapses into one ReadMulti.
func BenchmarkNetPipeline(b *testing.B) {
	const keys = 256
	const queryKeys = 32
	for _, mode := range []string{server.ConnModeGoroutine, server.ConnModePoller} {
		b.Run("connmode="+mode, func(b *testing.B) {
			_, addr := benchServer(b, keys, mode)
			c := benchDial(b, addr, keys)
			all := make([]int, keys)
			for k := range all {
				all[k] = k
			}
			if err := c.SubscribeMulti(all); err != nil {
				b.Fatal(err)
			}
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				qkeys := make([]int, queryKeys)
				for pb.Next() {
					if rng.Intn(8) == 0 {
						for i := range qkeys {
							qkeys[i] = rng.Intn(keys)
						}
						if _, err := c.Query(workload.Query{Kind: workload.Sum, Keys: qkeys, Delta: 0}); err != nil {
							b.Error(err)
							return
						}
					} else {
						if _, err := c.ReadExact(rng.Intn(keys)); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}

// BenchmarkQueryFanout measures one bounded-aggregate query whose precision
// constraint forces a refresh of every key, in a single ReadMulti round
// trip.
func BenchmarkQueryFanout(b *testing.B) {
	const keys = 64
	for _, mode := range []string{server.ConnModeGoroutine, server.ConnModePoller} {
		b.Run("connmode="+mode, func(b *testing.B) {
			_, addr := benchServer(b, keys, mode)
			c := benchDial(b, addr, keys)
			all := make([]int, keys)
			for k := range all {
				all[k] = k
			}
			if err := c.SubscribeMulti(all); err != nil {
				b.Fatal(err)
			}
			q := workload.Query{Kind: workload.Sum, Keys: all, Delta: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
