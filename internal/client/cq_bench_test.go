package client

// Benchmark of the continuous-query engine against its poll-equivalent: a
// standing SUM(64 keys, Delta) registration maintained server-side versus a
// client loop re-running the same bounded Query after every source update.
// Each iteration is one source update step; refreshes/op is the wire
// refresh traffic that step cost (QueryUpdate frames for the standing
// query; pushes plus exact reads for the poll loop). The headline numbers
// are recorded in BENCH_cq.json at the repo root:
//
//	go test -run '^$' -bench BenchmarkCQStanding -benchtime 2s -cpu 1,2 ./internal/client

import (
	"math"
	"math/rand"
	"testing"

	"apcache/internal/core"
	"apcache/internal/server"
	"apcache/internal/workload"
)

func cqBenchServer(b *testing.B, keys int, connMode string) (*server.Server, string) {
	b.Helper()
	srv := server.New(server.Config{
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         1,
		ConnMode:     connMode,
	})
	if connMode != "" && srv.ConnMode() != connMode {
		b.Skipf("conn mode %q unsupported on this platform", connMode)
	}
	for k := 0; k < keys; k++ {
		srv.SetInitial(k, 100)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func BenchmarkCQStanding(b *testing.B) {
	const nKeys = 64
	const delta = 64.0
	keys := make([]int, nKeys)
	for k := range keys {
		keys[k] = k
	}

	newWalks := func() []*workload.RandomWalk {
		walks := make([]*workload.RandomWalk, nKeys)
		for k := range walks {
			walks[k] = workload.NewRandomWalk(100, 0.5, 4, rand.New(rand.NewSource(int64(k))))
		}
		return walks
	}

	for _, mode := range []string{server.ConnModeGoroutine, server.ConnModePoller} {
		b.Run("standing/connmode="+mode, func(b *testing.B) {
			srv, addr := cqBenchServer(b, nKeys, mode)
			c := benchDial(b, addr, nKeys)
			w, err := c.WatchQuery(workload.Sum, delta, keys...)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			walks := newWalks()
			base := c.Stats()
			pings := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % nKeys
				srv.Set(k, walks[k].Step())
				// Drain delivered answers like a live consumer would.
				for {
					select {
					case <-w.Updates():
						continue
					default:
					}
					break
				}
				if i%64 == 63 {
					// Pace the driver: an unpaced in-process Set loop outruns
					// the reply path by orders of magnitude over what any
					// real source sustains, and measures queue overflow
					// instead of steady state. The round trip bounds the
					// un-drained backlog at 64 updates.
					if err := c.Ping(); err != nil {
						b.Fatal(err)
					}
					pings++
				}
			}
			b.StopTimer()
			if err := w.Err(); err != nil {
				b.Fatalf("standing query died mid-benchmark: %v", err)
			}
			st := c.Stats()
			b.ReportMetric(float64(st.FramesReceived-base.FramesReceived-pings)/float64(b.N), "refreshes/op")
		})
		b.Run("poll/connmode="+mode, func(b *testing.B) {
			srv, addr := cqBenchServer(b, nKeys, mode)
			c := benchDial(b, addr, nKeys)
			if err := c.SubscribeMulti(keys); err != nil {
				b.Fatal(err)
			}
			q := workload.Query{Kind: workload.Sum, Keys: keys, Delta: delta}
			walks := newWalks()
			base := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % nKeys
				srv.Set(k, walks[k].Step())
				if _, err := c.Query(q); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					// Same pacing as the standing loop: locally-answered
					// queries never block, and on a small GOMAXPROCS an
					// unpaced driver starves the server's drainer goroutines,
					// deferring pushes the poll client needs for sound
					// answers. The round trip lets them drain.
					if err := c.Ping(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := c.Stats()
			b.ReportMetric(float64(st.ValueRefreshes-base.ValueRefreshes+st.QueryRefreshes-base.QueryRefreshes)/float64(b.N), "refreshes/op")
		})
	}
}
