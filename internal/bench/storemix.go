package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"apcache/internal/cache"
	"apcache/internal/core"
	"apcache/internal/engine"
	"apcache/internal/plot"
	"apcache/internal/workload"
)

// OpMix describes one concurrent-store workload mix for the contention
// ablations: the percentages of Set (value updates), Get (lock-free
// approximate reads), and ReadExact (query-initiated refreshes) out of 100,
// plus an optional zipf skew on key selection. The historical benchmark mix
// is Mixed; ReadHeavy is the regime the paper's cache targets (most reads
// answered from the cached interval), and ZipfReadHeavy adds the hot-key
// skew that the shared admission budget exists for.
type OpMix struct {
	Name                    string
	SetPct, GetPct, ReadPct int
	// ZipfS, when positive, draws keys zipf-skewed with this exponent
	// instead of uniformly.
	ZipfS float64
}

// The store mixes exercised by the "storemix" experiment and by the root
// package's BenchmarkStoreReadHeavy/BenchmarkStoreReadSkewed.
var (
	Mixed         = OpMix{Name: "mixed-70/25/5", SetPct: 70, GetPct: 25, ReadPct: 5}
	ReadHeavy     = OpMix{Name: "read-heavy-90/10", SetPct: 10, GetPct: 90}
	ZipfReadHeavy = OpMix{Name: "zipf-read-heavy-90/10", SetPct: 10, GetPct: 90, ZipfS: 1.1}
)

// StoreMixes lists every mix the ablation sweeps.
var StoreMixes = []OpMix{Mixed, ReadHeavy, ZipfReadHeavy}

// Op draws the next operation of the mix: 0 = Set, 1 = Get, 2 = ReadExact.
func (m OpMix) Op(rng *rand.Rand) int {
	r := rng.Intn(100)
	switch {
	case r < m.SetPct:
		return 0
	case r < m.SetPct+m.GetPct:
		return 1
	default:
		return 2
	}
}

func init() {
	register(&Experiment{
		ID:    "storemix",
		Title: "Store contention ablation: seqlock read path under op mixes and skew",
		Paper: "not in the paper; measures the implementation's lock-free read path across shard counts, op mixes and key skew",
		Run:   runStoreMix,
	})
}

// mixStore is the miniature concurrent store the ablation drives: the shard
// engine apcache.Store runs on, with a seqlock cache per shard as its far
// side and nothing else (the bench package cannot import the root package
// without an import cycle through the root benchmarks).
type mixStore struct {
	*engine.Engine[*cache.SeqCache]
}

func newMixStore(shards, keys, cacheSize int, seed int64) mixStore {
	base := max(cacheSize/(2*shards), 1)
	budget := cache.NewBudget(max(cacheSize-base*shards, 0))
	ms := mixStore{engine.New(engine.Config{
		Shards:       shards,
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)},
		InitialWidth: 10,
		Seed:         seed,
	}, func(int) *cache.SeqCache { return cache.NewSeq(base, budget) })}
	for k := 0; k < keys; k++ {
		ms.set(k, float64(k))
		sh := ms.For(k)
		r := sh.Src.Subscribe(0, k)
		sh.Host.Put(r.Key, r.Interval, r.OriginalWidth)
	}
	return ms
}

func (ms mixStore) set(key int, v float64) {
	sh := ms.For(key)
	sh.Mu.Lock()
	refreshes, _ := ms.Set(sh, key, v)
	for _, r := range refreshes {
		sh.Host.Put(r.Key, r.Interval, r.OriginalWidth)
	}
	sh.Mu.Unlock()
}

func (ms mixStore) get(key int) bool {
	_, ok := ms.For(key).Host.Get(key)
	return ok
}

func (ms mixStore) read(key int) float64 {
	sh := ms.For(key)
	sh.Mu.Lock()
	r := sh.Src.Read(0, key)
	sh.Host.Put(r.Key, r.Interval, r.OriginalWidth)
	sh.Mu.Unlock()
	return r.Value
}

// runStoreMix sweeps the op mixes over the seqlock store at 1 and 8 shards,
// reporting wall-clock throughput plus the deterministic occupancy
// invariants (these must hold exactly regardless of scheduling).
func runStoreMix(opt Options) (*Report, error) {
	rep := &Report{ID: "storemix", Title: "Concurrent store op-mix ablation"}
	keys, cacheSize, goroutines, opsPerG := 1024, 256, 8, 30000
	if opt.Quick {
		opsPerG = 6000
	}
	tb := plot.NewTable("mix", "shards", "ops/sec", "hit rate", "borrowed", "evict+reject")
	for _, mix := range StoreMixes {
		var zipf *workload.ZipfKeys
		if mix.ZipfS > 0 {
			zipf = workload.NewZipfKeys(keys, mix.ZipfS)
		}
		for _, shards := range []int{1, 8} {
			ms := newMixStore(shards, keys, cacheSize, opt.Seed)
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(opt.Seed + int64(g)*101))
					for i := 0; i < opsPerG; i++ {
						k := rng.Intn(keys)
						if zipf != nil {
							k = zipf.Sample(rng)
						}
						switch mix.Op(rng) {
						case 0:
							ms.set(k, rng.Float64()*1000)
						case 1:
							ms.get(k)
						default:
							ms.read(k)
						}
					}
				}(g)
			}
			wg.Wait()
			elapsed := time.Since(start)
			opsPerSec := float64(goroutines*opsPerG) / elapsed.Seconds()

			// Deterministic sum invariants, scheduling-independent.
			var totLen, totCap, totBorrowed, admits, evicts int
			var hits, misses int
			for _, sh := range ms.Shards() {
				c := sh.Host
				cs := c.Stats()
				totLen += c.Len()
				totCap += c.Capacity()
				totBorrowed += c.Borrowed()
				admits += cs.Admits
				evicts += cs.Evicts
				hits += cs.Hits
				misses += cs.Misses
				if c.Len() > c.Capacity() {
					return nil, fmt.Errorf("storemix: shard occupancy %d exceeds capacity %d", c.Len(), c.Capacity())
				}
			}
			if totLen > cacheSize || totCap > cacheSize {
				return nil, fmt.Errorf("storemix: aggregate occupancy/capacity %d/%d exceeds cap %d", totLen, totCap, cacheSize)
			}
			if admits-evicts != totLen {
				return nil, fmt.Errorf("storemix: admits-evicts %d disagrees with occupancy %d", admits-evicts, totLen)
			}
			hitRate := 0.0
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			var pressure int
			for _, sh := range ms.Shards() {
				cs := sh.Host.Stats()
				pressure += cs.Evicts + cs.Rejects
			}
			tb.AddRow(mix.Name, plot.FormatG(float64(shards)),
				plot.FormatG(opsPerSec), plot.FormatG(hitRate),
				plot.FormatG(float64(totBorrowed)), plot.FormatG(float64(pressure)))
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("1 vs 8 shard rows isolate the write-path contention (reads take no lock); zipf rows show the shared admission budget borrowing capacity toward hot shards")
	rep.Note("throughput is wall-clock and machine-dependent; the occupancy invariants checked during the run are exact")
	return rep, nil
}
