package cache_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"apcache/internal/cache"
	"apcache/internal/core"
	"apcache/internal/interval"
	"apcache/internal/query"
	"apcache/internal/source"
	"apcache/internal/workload"
)

// The sizing model: the benchmark's query_zipf workload with no clock and no
// socket — one real source.Source, one real cache.Cache per connection, the
// real planner, and between them the networked client's install rule. It is
// what a victim rule is priced on before the live benchmark is asked: it read
// within 1 % of the live refresh_cost_per_kop for either constructor (1364 and
// 1189 against 1350 and 1180 when the use-aware order went in; use-aware read
// 1180 against a live 1168 once a mute dropped its pair, and 1178 once a hit
// stopped crediting the sketch), and runs in under a second.
//
// The schedule is the benchmark's, at its size. Every key is a [0.5, 1.5]
// random walk and they step round-robin; after every fourth update each
// connection asks one SUM or MAX over 8 zipf(1.1) keys with delta uniform on
// [0, 16] (the live ratio: 2000 queries a second per connection against 8192
// updates), then looks each of those keys up once more, as the benchmark's
// worker does to check what is held.
const (
	modelKeys     = 8192
	modelCapacity = modelKeys / 8
	modelConns    = 2
	modelWarm     = 2  // sweeps of the key space before counting starts
	modelSweeps   = 10 // counted
	modelCvr      = 1.0
	modelCqr      = 2.0
)

type modelResult struct {
	costPerOp        float64   // (Cvr·VIR + Cqr·QIR) / (updates + queries), counted sweeps only
	perSweep         []float64 // the same, sweep by sweep, warm-up sweeps included
	evicts, rejects  int       // counted sweeps only
	residents, inTop int       // at the end: entries held, and how many of them are among each connection's capacity-many most-queried keys
	subs             int       // at the end: the source's subscriptions
	falls            int       // halvings beyond New's longest period's schedule: its hit ratio fell
}

// modelRun sizes one play of the schedule: sweeps are counted after the
// modelWarm ones, and from sweep shiftAt on, when it is positive, every query
// key is mapped through a fixed permutation of the key space, so the hot set
// moves at once to keys the caches have no counts for.
type modelRun struct {
	sweeps, shiftAt int
}

// runModel plays the schedule against caches built by newCache and fails the
// test at the first answer that is wider than asked or does not contain the
// true aggregate.
func runModel(t *testing.T, newCache func(capacity int) *cache.Cache, run modelRun) modelResult {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	prm := core.Params{Cvr: modelCvr, Cqr: modelCqr, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
	policyRNG := rand.New(rand.NewSource(1))
	src := source.New(func(cacheID, key int) core.WidthPolicy { return core.NewController(prm, 4, policyRNG) })
	walks := make([]*workload.RandomWalk, modelKeys)
	for k := range walks {
		walks[k] = workload.NewRandomWalk(100*rng.Float64(), 0.5, 1.5, rng)
		src.SetInitial(k, walks[k].Value())
	}
	order := rng.Perm(modelKeys)
	var shifted []int
	if run.shiftAt > 0 {
		shifted = rand.New(rand.NewSource(2)).Perm(modelKeys)
	}

	caches := make([]*cache.Cache, modelConns)
	muteq := make([]map[int]struct{}, modelConns) // keys to announce on the connection's next fetch
	gens := make([]*workload.QueryGen, modelConns)
	asked := make([][]int, modelConns) // lookups per key by the queries
	for c := range caches {
		caches[c] = newCache(modelCapacity)
		muteq[c] = map[int]struct{}{}
		gens[c] = &workload.QueryGen{
			Kinds: []workload.AggKind{workload.Sum, workload.Max}, NumSources: modelKeys, KeysPerQuery: 8,
			Constraints: workload.FromRange(0, 16), RNG: rand.New(rand.NewSource(int64(10 + c))), Zipf: workload.NewZipfKeys(modelKeys, 1.1),
		}
		asked[c] = make([]int, modelKeys)
	}

	// install is cacheside.Side.Install: a push replaces a held entry and never
	// admits one; whatever key ends up outside the cache is queued for muting.
	install := func(r source.Refresh, push bool) {
		c := caches[r.CacheID]
		held := c.Contains(r.Key)
		if push && !held {
			muteq[r.CacheID][r.Key] = struct{}{}
		} else if victim, evicted := c.Put(r.Key, r.Interval, r.OriginalWidth); evicted {
			muteq[r.CacheID][victim] = struct{}{}
		} else if !held && !c.Contains(r.Key) {
			muteq[r.CacheID][r.Key] = struct{}{}
		}
	}

	var vir, qir, updates, queries int
	var before []cache.Stats
	var res modelResult
	for sweep := 0; sweep < modelWarm+run.sweeps; sweep++ {
		if sweep == modelWarm {
			for _, c := range caches {
				before = append(before, c.Stats())
			}
		}
		vir, qir, updates, queries = 0, 0, 0, 0
		for i, k := range order {
			updates++
			for _, r := range src.Set(k, walks[k].Step()) {
				vir++
				install(r, true)
			}
			if i%4 != 3 {
				continue
			}
			for c, store := range caches {
				queries++
				q := gens[c].Next()
				if shifted != nil && sweep >= run.shiftAt {
					for j, k := range q.Keys {
						q.Keys[j] = shifted[k]
					}
				}
				ans := query.ExecuteBatchRamp(q, store.Get, func(keys []int) []float64 {
					// One ReadMulti: the mute tail first, then the reads.
					for k := range muteq[c] {
						if !store.Contains(k) {
							src.Mute(c, k, 0)
						}
					}
					clear(muteq[c])
					vals := make([]float64, len(keys))
					for j, k := range keys {
						r := src.Read(c, k)
						qir++
						install(r, false)
						vals[j] = r.Value
					}
					return vals
				}, query.DefaultRamp) // the client's ramp
				truth := math.Inf(-1)
				if q.Kind == workload.Sum {
					truth = 0
				}
				for _, k := range q.Keys {
					asked[c][k]++
					v, _ := src.Value(k)
					if q.Kind == workload.Sum {
						truth += v
					} else {
						truth = math.Max(truth, v)
					}
					if iv, ok := store.Get(k); ok && !iv.Valid(v) {
						t.Fatalf("sweep %d: connection %d holds %v for key %d, whose value is %g", sweep, c, iv, k, v)
					}
				}
				if ans.Result.Width() > q.Delta+1e-9 || !within(ans.Result, truth) {
					t.Fatalf("sweep %d: %v over %v within %g answered %v, the truth is %g", sweep, q.Kind, q.Keys, q.Delta, ans.Result, truth)
				}
			}
		}
		res.perSweep = append(res.perSweep, (modelCvr*float64(vir)+modelCqr*float64(qir))/float64(updates+queries))
	}

	// Every sweep runs the same number of updates and queries, so the
	// counted sweeps' mean is their pooled cost.
	for _, c := range res.perSweep[modelWarm:] {
		res.costPerOp += c / float64(run.sweeps)
	}
	res.subs = src.Subscriptions()
	// A mute drops its pair, so the source keeps one per resident and one per
	// key still waiting to be announced: the coherence equality.
	held, pending := 0, 0
	for c, store := range caches {
		held += len(store.Keys())
		for k := range muteq[c] {
			if !store.Contains(k) {
				pending++
			}
		}
	}
	if res.subs != held+pending {
		t.Errorf("the source keeps %d subscriptions for %d residents and %d keys not yet announced", res.subs, held, pending)
	}
	for c, store := range caches {
		st := store.Stats()
		res.evicts += st.Evicts - before[c].Evicts
		res.rejects += st.Rejects - before[c].Rejects
		res.falls += cache.Halvings(store) - (st.Hits+st.Misses)/(cache.MaxAgeEvery*modelCapacity)
		// The connection's capacity-many most-queried keys, ties toward the
		// smaller (the more probable) key.
		byUse := make([]int, modelKeys)
		for k := range byUse {
			byUse[k] = k
		}
		sort.SliceStable(byUse, func(a, b int) bool { return asked[c][byUse[a]] > asked[c][byUse[b]] })
		top := map[int]bool{}
		for _, k := range byUse[:modelCapacity] {
			top[k] = true
		}
		for _, k := range store.Keys() {
			res.residents++
			if top[k] {
				res.inTop++
			}
		}
	}
	return res
}

// within reports whether iv contains v up to the rounding of a sum of eight.
func within(iv interval.Interval, v float64) bool {
	return iv.Lo-1e-9 <= v && v <= iv.Hi+1e-9
}

// TestUseAwareOrderOnZipfQueries prices the two victim rules on the model and
// pins what separates them: widest-first turns the cache over (a popular key
// always hits, is never read, every push doubles it, and it is evicted), the
// use-aware order does not, keeps the keys the queries ask for, and pays a
// tenth less for it in the paper's own metric.
//
// Widest-first evicted 4.3× as often (22 442 against 5 250) while a mute only
// silenced its pair, whose width kept doubling under the pushes it no longer
// shipped, so an evicted key was read back wide, the next victim. Since a
// mute drops the pair, every re-read starts from the initial width, and the
// gap is 8 859 against 4 623, 1.9×.
func TestUseAwareOrderOnZipfQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 12 sweeps of 8192 keys twice")
	}
	paper := runModel(t, cache.NewWidestFirst, modelRun{sweeps: modelSweeps})
	aware := runModel(t, cache.New, modelRun{sweeps: modelSweeps})
	t.Logf("widest-first: cost/kop %.1f, %d evictions, %d rejects, %d of %d residents among the most queried, %d subscriptions", 1000*paper.costPerOp, paper.evicts, paper.rejects, paper.inTop, paper.residents, paper.subs)
	t.Logf("use-aware:    cost/kop %.1f, %d evictions, %d rejects, %d of %d residents among the most queried, %d subscriptions, %d falls", 1000*aware.costPerOp, aware.evicts, aware.rejects, aware.inTop, aware.residents, aware.subs, aware.falls)
	if 2*paper.evicts < 3*aware.evicts {
		t.Errorf("widest-first evicted %d times and use-aware %d: the thrash the order exists to stop is not there, or was not stopped", paper.evicts, aware.evicts)
	}
	if aware.costPerOp > 0.9*paper.costPerOp {
		t.Errorf("use-aware costs %.4f per op against widest-first's %.4f, want at least 10 %% less", aware.costPerOp, paper.costPerOp)
	}
	if aware.falls != 0 {
		t.Errorf("use-aware halved its counts %d times more than its longest period does: on a fixed hot set its hit ratio fell", aware.falls)
	}
	if float64(aware.inTop) < 0.85*float64(aware.residents) {
		t.Errorf("use-aware holds %d of its %d residents from the most-queried keys, want at least 85 %%", aware.inTop, aware.residents)
	}
}

// TestUseAwareRecoversFromAShift pins the other side of New's ageing period:
// how fast the use counts forget a hot set that has moved. Four counted
// sweeps run on the stationary schedule, then every query key is remapped
// and the cache must earn its new residents back. New keeps a 512-capacity
// memory while its hit ratio holds, which is what buys the stationary
// schedule 1171.0 against 1178.3 at the fixed 64 it replaced. Its first
// window after the shift falls, and the halvings that follow are 16, 32, ...
// capacities apart: the shift sweep reads about 1.8× the level before it,
// and the per-sweep cost is back within 3 % of that level five sweeps
// later, as at the fixed 64. A fixed 512 takes fourteen sweeps: this test
// fails there.
func TestUseAwareRecoversFromAShift(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 18 sweeps of 8192 keys")
	}
	const (
		before = 4    // counted sweeps before the shift
		after  = 12   // sweeps from the shift on
		within = 8    // sweeps after the shift by which the cost must be back
		margin = 1.03 // of the level before the shift
	)
	shiftAt := modelWarm + before
	res := runModel(t, cache.New, modelRun{sweeps: before + after, shiftAt: shiftAt})
	level := 0.0
	for _, c := range res.perSweep[modelWarm:shiftAt] {
		level += c / before
	}
	back := -1
	for s := shiftAt + 1; s < len(res.perSweep) && back < 0; s++ {
		if res.perSweep[s] <= margin*level {
			back = s - shiftAt
		}
	}
	for s, c := range res.perSweep[modelWarm:] {
		t.Logf("sweep %2d from the shift: cost/kop %.1f", s+modelWarm-shiftAt, 1000*c)
	}
	t.Logf("before the shift: cost/kop %.1f; first sweep back within %.0f %%: %d after the shift (-1: none); %d falls", 1000*level, 100*(margin-1), back, res.falls)
	if shock := res.perSweep[shiftAt]; shock < 1.25*level {
		t.Errorf("the shift sweep costs %.1f per kop against %.1f before it: the hot set did not move", 1000*shock, 1000*level)
	}
	if back < 0 || back > within {
		t.Errorf("the cost was not back within %.0f %% of its level before the shift (%.1f) %d sweeps after it", 100*(margin-1), 1000*level, within)
	}
}
