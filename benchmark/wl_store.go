package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"apcache"
	"apcache/internal/workload"
)

// store_mixed: the embedded product, with the wire, the client and the
// server bypassed entirely. Goroutines run a pre-drawn zipf schedule of
// 88 % Get / 10 % Set / 2 % Do closed loop against one in-process Store
// whose cache holds a quarter of the tracked keys.
//
// Each goroutine owns the keys congruent to its index: it is the only
// writer of those keys, so it knows their exact values and can check every
// interval it reads for them and every Do answer exactly. Gets range over
// all keys and so contend with the other goroutine's writes.

const (
	smGet = iota
	smSet
	smDo
)

type smOp struct {
	kind uint8
	key  int32   // Get: any key; Set: a key the goroutine owns
	step float64 // Set: signed random-walk step
	q    int32   // Do: index into the goroutine's queries
}

type smInputs struct {
	initial []float64
	ops     [][]smOp
	queries [][]workload.Query
}

func smGenerate(e *runEnv, workers int) *smInputs {
	rng := subSeed(e.seed, 4)
	in := &smInputs{initial: make([]float64, smKeys)}
	for k := range in.initial {
		in.initial[k] = 100 * rng.Float64()
	}
	zipf := workload.NewZipfKeys(smKeys, smZipfS)
	for g := 0; g < workers; g++ {
		r := subSeed(e.seed, 40+int64(g))
		own := func(k int) int { return k - k%workers + g } // the owned key nearest below a zipf draw keeps the skew
		qs := make([]workload.Query, smQueries)
		for i := range qs {
			seen := map[int]bool{}
			var keys []int
			for len(keys) < smKeysPerQuery {
				if k := own(zipf.Sample(r)); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			qs[i] = workload.Query{Kind: workload.Sum, Keys: keys, Delta: smDeltaMax * r.Float64()}
		}
		ops := make([]smOp, smSchedule)
		for i := range ops {
			switch p := r.Intn(100); {
			case p < smGetPct:
				ops[i] = smOp{kind: smGet, key: int32(zipf.Sample(r))}
			case p < smGetPct+smSetPct:
				step := 0.5 + r.Float64()
				if r.Intn(2) == 0 {
					step = -step
				}
				ops[i] = smOp{kind: smSet, key: int32(own(zipf.Sample(r))), step: step}
			default:
				ops[i] = smOp{kind: smDo, q: int32(r.Intn(smQueries))}
			}
		}
		in.ops = append(in.ops, ops)
		in.queries = append(in.queries, qs)
	}
	return in
}

type smWorker struct {
	g, workers int
	st         *apcache.Store
	ops        []smOp
	queries    []workload.Query
	cur        []float64 // exact value of every key; only owned entries are kept current
	pos        int

	counts   [nSlices]int64
	doLat    *sliced
	getNS    []float64
	setNS    []float64
	total    int64
	failed   int64
	spans    *spanBuf
	doTotal  int64
	doFetch  int64
	sampleAt int
}

// apply runs one scheduled op and checks what it can check exactly.
func (w *smWorker) apply(op *smOp, timed bool) {
	switch op.kind {
	case smGet:
		var t0 int64
		if timed {
			t0 = nowNS()
		}
		iv, ok := w.st.Get(int(op.key))
		if timed {
			t1 := nowNS()
			w.getNS = append(w.getNS, float64(t1-t0))
			w.spans.record("store.get", t0, t1, 0)
		}
		if ok && int(op.key)%w.workers == w.g && !iv.Valid(w.cur[op.key]) {
			w.failed++ // validity: the owner knows the exact value
		}
	case smSet:
		v := w.cur[op.key] + op.step
		w.cur[op.key] = v
		var t0 int64
		if timed {
			t0 = nowNS()
		}
		w.st.Set(int(op.key), v)
		if timed {
			t1 := nowNS()
			w.setNS = append(w.setNS, float64(t1-t0))
			w.spans.record("store.set", t0, t1, 0)
		}
	case smDo:
		q := &w.queries[op.q]
		t0 := nowNS()
		ans, err := w.st.Do(*q)
		t1 := nowNS()
		w.doLat.add(t1, float64(t1-t0)/1e3)
		if timed {
			w.spans.record("store.do", t0, t1, 0)
		}
		w.doTotal++
		w.doFetch += int64(len(ans.Refreshed))
		sum := 0.0
		for _, k := range q.Keys {
			sum += w.cur[k]
		}
		const eps = 1e-6
		if err != nil || ans.Result.Width() > q.Delta+1e-9 || sum < ans.Result.Lo-eps || sum > ans.Result.Hi+eps {
			w.failed++ // error, precision, or an answer that misses the true sum
		}
	}
}

// warm runs the first smWarmOps of the schedule.
func (w *smWorker) warm() {
	for i := 0; i < smWarmOps; i++ {
		w.apply(&w.ops[w.pos], false)
		w.pos = (w.pos + 1) % len(w.ops)
	}
}

func (w *smWorker) run(clk phaseClock) {
	for {
		sl := clk.slice(nowNS())
		if sl < 0 {
			break
		}
		tracing := clk.tracing(sl)
		for n := 0; n < 256; n++ {
			op := &w.ops[w.pos]
			if w.pos++; w.pos == len(w.ops) {
				w.pos = 0
			}
			timed := false
			if tracing {
				if w.sampleAt--; w.sampleAt <= 0 {
					timed, w.sampleAt = true, smSampleEvery
				}
			}
			w.apply(op, timed)
		}
		w.counts[sl] += 256
		w.total += 256
	}
	w.spans.flush()
}

type smSession struct {
	st      *apcache.Store
	workers []*smWorker
}

func runStoreMixed(e *runEnv) (*outcome, error) {
	workers := connCount()
	in := smGenerate(e, workers)
	// rss_mb is this process's own peak here: start it from what this run
	// holds, not from what an earlier run in the same process left behind.
	debug.FreeOSMemory()
	resetPeakRSS()

	setup := func() (*smSession, error) {
		st, err := apcache.NewStore(apcache.Options{
			Params:       apcache.DefaultParams(paramCvr, paramCqr, 0),
			CacheSize:    smCache,
			InitialWidth: 4,
			Seed:         serverSeed,
		})
		if err != nil {
			return nil, invalidf("new store: %v", err)
		}
		for k, v := range in.initial {
			st.Track(k, v)
		}
		s := &smSession{st: st}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			w := &smWorker{g: g, workers: workers, st: st, ops: in.ops[g], queries: in.queries[g], cur: append([]float64(nil), in.initial...)}
			w.doLat = newSliced(0, 1, 0) // warm-up latencies are dropped
			s.workers = append(s.workers, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.warm()
			}()
		}
		wg.Wait()
		return s, nil
	}
	s, setupS, err := repeatSetup(e, setup, func(*smSession) {})
	if err != nil {
		return nil, err
	}

	runtime.GC() // start every run from a collected heap: the schedules are large and live
	t0 := nowNS() + int64(5*time.Millisecond)
	durNS := int64(e.dur)
	wl := e.tr.open("workload."+e.workload, t0, t0+durNS, 0)
	clk := phaseClock{start: t0, length: durNS / nSlices, traced: e.traced}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0, s0 := cpuSeconds()
	st0 := s.st.Stats()
	var wg sync.WaitGroup
	for _, w := range s.workers {
		w.doLat = newSliced(t0, durNS, 1<<14)
		w.failed = 0
		w.spans = e.tr.buf(wl, 1<<16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pc pacer
			pc.until(t0)
			w.run(clk)
		}()
	}
	wg.Wait()
	wall := float64(nowNS()-t0) / 1e9
	u1, s1 := cpuSeconds()
	st1 := s.st.Stats()
	runtime.ReadMemStats(&ms1)

	out := newOutcome()
	out.hostGOMAXPROCS = runtime.GOMAXPROCS(0)
	counts := make([]int64, nSlices)
	doLat := newSliced(t0, durNS, 0)
	var getNS, setNS []float64
	var doTotal, doFetch int64
	for _, w := range s.workers {
		for i, n := range w.counts {
			counts[i] += n
		}
		doLat.merge(w.doLat)
		out.attempted += w.total
		out.failed += w.failed
		getNS = append(getNS, w.getNS...)
		setNS = append(setNS, w.setNS...)
		doTotal += w.doTotal
		doFetch += w.doFetch
	}
	if out.failed > 0 {
		e.notef("FAILED %d: Get missed its key's exact value, or Do erred, was too wide, or missed the true sum", out.failed)
	}
	// After the run the owners' values are final: every cached interval of
	// an owned key contains it.
	stale := 0
	for _, w := range s.workers {
		for k := w.g; k < smKeys; k += workers {
			if iv, ok := s.st.Get(k); ok && !iv.Valid(w.cur[k]) {
				stale++
			}
		}
	}
	out.fail(e, stale, "validity at the end: a cached interval does not contain its key's value")

	ops := float64(out.attempted)
	cost := st1.Cost - st0.Cost
	out.set("setup_s", setupS)
	out.setN("timed.latency_p50_us", doLat.p50(), doLat.count())
	out.setN("timed.latency_p99_us", doLat.tail(0.99), doLat.count())
	out.setN("timed.ops_per_s", sliceRates(counts, durNS/nSlices), int(out.attempted))
	out.set("refresh_cost_per_kop", cost/(ops/1000))
	out.set("timed.cpu_us_per_op", ((u1-u0)+(s1-s0))*1e6/ops)
	out.set("rss_mb", peakRSSMB())
	e.notef("%d goroutines closed loop over %d keys (cache %d), %d%% Get / %d%% Set / %d%% Do; %.0f ops in %.2f s, cost rate Ω = %.0f cost/s (VIR %d, QIR %d)",
		workers, smKeys, smCache, smGetPct, smSetPct, 100-smGetPct-smSetPct, ops, wall, cost/wall,
		st1.ValueRefreshes-st0.ValueRefreshes, st1.QueryRefreshes-st0.QueryRefreshes)

	hits, misses := float64(st1.Cache.Hits-st0.Cache.Hits), float64(st1.Cache.Misses-st0.Cache.Misses)
	out.set("cache.replay_hit_ratio", ratio(hits, hits+misses)) // overwritten by the replay's own in a traced run
	out.set("store.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops)
	out.set("store.evictions_per_s", float64(st1.Cache.Evicts-st0.Cache.Evicts)/wall)
	out.set("query.fetches_per_query", ratio(float64(doFetch), float64(doTotal)))
	out.set("trace.overhead_ratio", overheadRatio(counts, e.traced))
	out.setN("store.do_p99_us", doLat.tail(0.99), doLat.count())
	if e.traced {
		sort.Float64s(getNS)
		sort.Float64s(setNS)
		out.setN("store.get_p50_ns", percentile(getNS, 0.5), len(getNS))
		out.setN("store.set_p50_ns", percentile(setNS, 0.5), len(setNS))
		replayStoreMixed(e, out, in)
	}
	return out, nil
}

// connCount is the number of load-generating goroutines and client
// connections: the sizes are fixed for two, and a one-core box gets one.
func connCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}
