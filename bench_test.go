package apcache

// This file is the benchmark entry point for the paper reproduction: one
// Benchmark per table/figure of the SIGMOD 2001 evaluation (each iteration
// executes the registered experiment in quick mode and reports its headline
// metric), plus micro-benchmarks of the core data structures.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-fidelity experiment output (paper-scale durations) comes from:
//
//	go run ./cmd/apcache-sim -all

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"apcache/internal/cache"
	"apcache/internal/core"
	"apcache/internal/interval"
	"apcache/internal/netproto"
	"apcache/internal/query"
	"apcache/internal/study/bench"
	"apcache/internal/wal"
	"apcache/internal/workload"
)

// runExperiment executes a registered experiment once per iteration.
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.Options{Quick: true, Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 && len(rep.Charts) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md section 4).

func BenchmarkFig2(b *testing.B)             { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)             { runExperiment(b, "fig3") }
func BenchmarkConvergence(b *testing.B)      { runExperiment(b, "conv") }
func BenchmarkFig45(b *testing.B)            { runExperiment(b, "fig45") }
func BenchmarkFig6(b *testing.B)             { runExperiment(b, "fig6") }
func BenchmarkFig789(b *testing.B)           { runExperiment(b, "fig789") }
func BenchmarkSigmaSensitivity(b *testing.B) { runExperiment(b, "sigma") }
func BenchmarkMaxQueries(b *testing.B)       { runExperiment(b, "maxq") }
func BenchmarkFig1011(b *testing.B)          { runExperiment(b, "fig1011") }
func BenchmarkFig1213(b *testing.B)          { runExperiment(b, "fig1213") }
func BenchmarkFig1415(b *testing.B)          { runExperiment(b, "fig1415") }
func BenchmarkVariants(b *testing.B)         { runExperiment(b, "variants") }
func BenchmarkAblation(b *testing.B)         { runExperiment(b, "ablation") }

// --- micro-benchmarks ---

func BenchmarkControllerRefresh(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := core.NewController(core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)}, 4, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			c.OnRefresh(core.ValueInitiated)
		} else {
			c.OnRefresh(core.QueryInitiated)
		}
	}
}

func BenchmarkCachePutGet(b *testing.B) {
	c := cache.NewWidestFirst(64)
	iv := interval.Centered(0, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := i % 128 // half the keys fight for space
		c.Put(key, iv, float64(i%97))
		c.Get(key)
	}
}

func BenchmarkQuerySum(b *testing.B) {
	cached := map[int]interval.Interval{}
	exact := map[int]float64{}
	for k := 0; k < 10; k++ {
		exact[k] = float64(k)
		cached[k] = interval.Centered(float64(k), 4)
	}
	q := workload.Query{Kind: workload.Sum, Keys: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, Delta: 25}
	get := func(key int) (interval.Interval, bool) { iv, ok := cached[key]; return iv, ok }
	fetch := func(key int) float64 { return exact[key] }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = query.Execute(q, get, fetch)
	}
}

func BenchmarkQueryMaxExact(b *testing.B) {
	cached := map[int]interval.Interval{}
	exact := map[int]float64{}
	for k := 0; k < 10; k++ {
		exact[k] = float64(k * 10)
		cached[k] = interval.Centered(float64(k*10), 4)
	}
	q := workload.Query{Kind: workload.Max, Keys: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, Delta: 0}
	get := func(key int) (interval.Interval, bool) { iv, ok := cached[key]; return iv, ok }
	fetch := func(key int) float64 { return exact[key] }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = query.Execute(q, get, fetch)
	}
}

// BenchmarkProtoEncodeDecode encodes a Refresh into a reused buffer and
// decodes it through one StreamDecoder, as a connection's read loop does.
func BenchmarkProtoEncodeDecode(b *testing.B) {
	msg := &netproto.Refresh{ID: 1, Key: 7, Kind: netproto.KindValueInitiated,
		Value: 1.5, Lo: 1, Hi: 2, OriginalWidth: 1}
	dec := netproto.NewStreamDecoder()
	keep := func(netproto.Message) error { return nil }
	var frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if frame, err = netproto.AppendFrame(frame[:0], msg); err != nil {
			b.Fatal(err)
		}
		if err := dec.Feed(frame, keep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreParallel measures the mixed hot path (70% Set, 25% Get, 5%
// ReadExact over 1024 keys) under b.RunParallel at 1, 4, and 8 shards. The
// 1-shard configuration is the old global-lock architecture; the scaling
// ratio 8-shard/1-shard is the headline recorded in BENCH_store.json.
func BenchmarkStoreParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := NewStore(Options{InitialWidth: 10, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			const keys = 1024
			for k := 0; k < keys; k++ {
				s.Track(k, 0)
			}
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					k := rng.Intn(keys)
					switch r := rng.Intn(20); {
					case r < 14:
						s.Set(k, rng.Float64()*1000)
					case r < 19:
						s.Get(k)
					default:
						if _, err := s.ReadExact(k); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}

// BenchmarkStoreDo measures the Store's query path: a SUM over 8 or 64 keys
// at Delta 0, which fetches every key, and at a Delta far above the keys'
// summed widths, which holds every key. Alpha 0 freezes the widths, so every
// iteration does the same work. Goroutines walk the 1024 keys in disjoint
// windows of the query's size; run it at -cpu 1,2 to see the shard locks
// the queries take under contention.
func BenchmarkStoreDo(b *testing.B) {
	const keys = 1024
	for _, n := range []int{8, 64} {
		for _, c := range []struct {
			name  string
			delta float64
		}{{"fetch", 0}, {"held", 1e9}} {
			b.Run(fmt.Sprintf("keys=%d/%s", n, c.name), func(b *testing.B) {
				s, err := NewStore(Options{
					Params:       Params{Cvr: 1, Cqr: 2, Alpha: 0, Lambda1: math.Inf(1)},
					InitialWidth: 10,
					Shards:       8,
				})
				if err != nil {
					b.Fatal(err)
				}
				all := make([]int, keys)
				for k := range all {
					all[k] = k
					s.Track(k, float64(k))
				}
				var seed atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					w := int(seed.Add(1))
					for pb.Next() {
						lo := w * n % keys
						if _, err := s.Do(Query{Kind: Sum, Keys: all[lo : lo+n], Delta: c.delta}); err != nil {
							b.Error(err)
							return
						}
						w += 2
					}
				})
			})
		}
	}
}

func BenchmarkStoreSet(b *testing.B) {
	s, err := NewStore(Options{InitialWidth: 10})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 16; k++ {
		s.Track(k, 0)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Set(i%16, rng.Float64()*100)
	}
}

// opMix describes one concurrent-store workload mix: the percentages of Set
// (value updates), Get (approximate reads) and ReadExact
// (query-initiated refreshes) out of 100, plus an optional zipf skew on key
// selection. readHeavy is the regime the paper's cache targets (most reads
// answered from the cached interval); zipfReadHeavy adds a hot-key skew;
// zipfReadHeavyBounded caps the caches at a quarter of the keys, so that they
// fill and every Get is counted.
type opMix struct {
	name                    string
	setPct, getPct, readPct int
	// zipfS, when positive, draws keys zipf-skewed with this exponent
	// instead of uniformly.
	zipfS float64
	// bounded sets CacheSize to a quarter of the keys; false leaves it unbounded.
	bounded bool
}

var (
	readHeavy            = opMix{name: "read-heavy-90/10", setPct: 10, getPct: 90}
	zipfReadHeavy        = opMix{name: "zipf-read-heavy-90/10", setPct: 10, getPct: 90, zipfS: 1.1}
	zipfReadHeavyBounded = opMix{name: "zipf-read-heavy-90/10-bounded", setPct: 10, getPct: 90, zipfS: 1.1, bounded: true}
)

func TestOpMixDistribution(t *testing.T) {
	for _, mix := range []opMix{readHeavy, zipfReadHeavy, zipfReadHeavyBounded} {
		if mix.setPct+mix.getPct+mix.readPct != 100 {
			t.Errorf("%s: percentages sum to %d, want 100",
				mix.name, mix.setPct+mix.getPct+mix.readPct)
		}
	}
}

// benchmarkStoreOpMix measures one store op mix at 1, 4, and 8 shards. The
// sub-benchmark names keep the "seqlock" suffix so they line up with the
// rows recorded in BENCH_store.json, although every Get now takes the shard
// mutex; the locked_get entry there prices that against the seqlock read.
func benchmarkStoreOpMix(b *testing.B, mix opMix) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/seqlock", shards), func(b *testing.B) {
			const keys = 1024
			opts := Options{InitialWidth: 10, Shards: shards}
			if mix.bounded {
				opts.CacheSize = keys / 4
			}
			s, err := NewStore(opts)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				s.Track(k, 0)
			}
			// Pre-draw the key schedule so the timed loop measures the
			// store, not the random number generator; goroutines walk it
			// from staggered offsets. Ops follow the mix deterministically
			// over each window of 100 (exact percentages).
			const schedule = 8192
			rng := rand.New(rand.NewSource(17))
			var zipf *workload.ZipfKeys
			if mix.zipfS > 0 {
				zipf = workload.NewZipfKeys(keys, mix.zipfS)
			}
			sched := make([]int, schedule)
			for i := range sched {
				if zipf != nil {
					sched[i] = zipf.Sample(rng)
				} else {
					sched[i] = rng.Intn(keys)
				}
			}
			// Servers run far more client goroutines than cores; give the
			// lock paths a realistic waiter population.
			b.SetParallelism(4)
			var seed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Stagger both the key walk and the op phase so the
				// goroutines' Set windows do not align.
				off := int(seed.Add(1)) * 911
				j := off
				for pb.Next() {
					k := sched[(off+j)%schedule]
					switch r := j % 100; {
					case r < mix.setPct:
						s.Set(k, float64(j%1000))
					case r < mix.setPct+mix.getPct:
						s.Get(k)
					default:
						if _, err := s.ReadExact(k); err != nil {
							b.Error(err)
							return
						}
					}
					j++
				}
			})
		})
	}
}

// BenchmarkStoreReadHeavy is the 90% Get / 10% Set regime the paper's cache
// optimizes for: most reads answered from the cached interval.
func BenchmarkStoreReadHeavy(b *testing.B) { benchmarkStoreOpMix(b, readHeavy) }

// BenchmarkStoreReadSkewed adds zipf-skewed key popularity, stacking shard
// hot-spotting on top of the read-heavy mix.
func BenchmarkStoreReadSkewed(b *testing.B) { benchmarkStoreOpMix(b, zipfReadHeavy) }

// BenchmarkStoreReadSkewedBounded is the skewed mix over caches a quarter of
// the key space: the shard caches fill, so each Get is a counted lookup and a
// ReadExact of a key not held competes for admission.
func BenchmarkStoreReadSkewedBounded(b *testing.B) { benchmarkStoreOpMix(b, zipfReadHeavyBounded) }

// BenchmarkWALAppend measures what write-ahead durability costs the Set hot
// path: "nowal" is the plain in-memory store; the fsync variants journal
// every update through the per-shard WAL under the named policy. The
// interval-vs-nowal delta is the acceptance headline recorded in
// BENCH_store.json — group commit must keep it under 2µs/op — while
// fsync=always pays a real fsync per operation and exists to price that
// guarantee honestly.
func BenchmarkWALAppend(b *testing.B) {
	const keys = 256
	for _, mode := range []string{"nowal", "none", "interval", "always"} {
		b.Run("fsync="+mode, func(b *testing.B) {
			var (
				s   *Store
				err error
			)
			if mode == "nowal" {
				s, err = NewStore(Options{InitialWidth: 10})
			} else {
				var pol FsyncPolicy
				if pol, err = wal.ParsePolicy(mode); err != nil {
					b.Fatal(err)
				}
				s, err = NewStore(Options{InitialWidth: 10, WALDir: b.TempDir(), WALFsync: pol})
			}
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				s.Track(k, 0)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Set(i%keys, rng.Float64()*1000)
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatalf("durability broke during the benchmark: %v", err)
			}
		})
	}
}
