package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"apcache/internal/cache"
	"apcache/internal/core"
	"apcache/internal/cq"
	"apcache/internal/interval"
	"apcache/internal/netproto"
	"apcache/internal/query"
	"apcache/internal/source"
	"apcache/internal/wal"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// Layer replay: after a traced workload, its own recorded inputs are pushed
// single-threaded through each layer's public API in isolation and the
// calls are timed. A first, untimed pass composes the layers in process
// (source + caches + query planner, or source + CQ engine + journal) to
// derive exactly what each layer saw — the source's Set/Read sequence, each
// cache's Get/Put sequence, each query's lookups — and every layer is then
// timed alone on its own sequence, in a tight loop that reads the clock only
// where the kind of call changes. The times say where a request's
// microseconds go before anyone optimises it; what they leave unexplained is
// sockets, syscalls, locks and scheduling.

// maxReplayQueries bounds the replay so a traced run stays inside the time
// cap: the layers' per-call costs do not need the whole window.
const maxReplayQueries = 40000

// maxReplayStoreOps bounds the store replay the same way: an evicting Put
// costs tens of microseconds, and the replay makes each one twice.
const maxReplayStoreOps = 1 << 17

type srcOp struct {
	read       bool
	cache, key int32
	v          float64
}

type cacheOp struct {
	put bool
	key int32
	iv  interval.Interval
	w   float64
}

// lookupRec is what one query saw: the cached interval of each of its keys
// and the exact value a fetch would return.
type lookupRec struct {
	q    *workload.Query
	ivs  []interval.Interval
	ok   []bool
	vals []float64
}

// replayMix is the message mix and per-op time the live run observed.
type replayMix struct {
	framesPerQuery float64 // request frames per query
	fetchesPerRead float64 // keys per ReadMulti
	pushBatch      float64 // refreshes per pushed frame
	pushesPerQuery float64
	pushesPerOp    float64 // pushes returned per Set
	meanQueryUS    float64 // wall time per query, closed loop
	meanOpNS       float64 // wall time per Set, back to back
}

func controllerFactory(alpha, width float64) source.PolicyFactory {
	rng := rand.New(rand.NewSource(serverSeed))
	prm := core.Params{Cvr: paramCvr, Cqr: paramCqr, Alpha: alpha, Lambda0: 0, Lambda1: math.Inf(1)}
	return func(cacheID, key int) core.WidthPolicy { return core.NewController(prm, width, rng) }
}

// timeSource replays ops into a fresh source prepared by prep.
func timeSource(out *outcome, factory source.PolicyFactory, prep func(*source.Source), ops []srcOp) {
	src := source.New(factory)
	prep(src)
	var ns [2]int64
	var n [2]int
	refreshes := 0
	cur := 0
	last := nowNS()
	for i := range ops {
		op := &ops[i]
		kind := 0
		if op.read {
			kind = 1
		}
		if kind != cur {
			now := nowNS()
			ns[cur] += now - last
			cur, last = kind, now
		}
		if op.read {
			src.Read(int(op.cache), int(op.key))
		} else {
			refreshes += len(src.Set(int(op.key), op.v))
		}
		n[kind]++
	}
	ns[cur] += nowNS() - last
	out.setN("source.set_ns", ratio(float64(ns[0]), float64(n[0])), n[0])
	out.setN("source.read_ns", ratio(float64(ns[1]), float64(n[1])), n[1])
	out.set("source.refreshes_per_set", ratio(float64(refreshes), float64(n[0])))
}

// meanWidth is the mean learned width over every (cache, key) pair the
// source holds.
func meanWidth(src *source.Source, caches []int, keys int) float64 {
	sum, n := 0.0, 0
	for _, c := range caches {
		for k := 0; k < keys; k++ {
			if p, ok := src.PolicyFor(c, k); ok {
				sum += p.Width()
				n++
			}
		}
	}
	return ratio(sum, float64(n))
}

// timeController times the width controller alone on a refresh mix with the
// observed share of value-initiated refreshes.
func timeController(out *outcome, alpha float64, vir, qir int) {
	n := vir + qir
	if n == 0 {
		out.set("core.on_refresh_ns", 0)
		return
	}
	rng := rand.New(rand.NewSource(serverSeed))
	c := core.NewController(core.Params{Cvr: paramCvr, Cqr: paramCqr, Alpha: alpha, Lambda0: 0, Lambda1: math.Inf(1)}, 4, rng)
	share := float64(vir) / float64(n)
	kinds := make([]core.RefreshKind, 4096)
	pick := rand.New(rand.NewSource(2))
	for i := range kinds {
		kinds[i] = core.QueryInitiated
		if pick.Float64() < share {
			kinds[i] = core.ValueInitiated
		}
	}
	if n < 200000 {
		n = 200000
	}
	start := nowNS()
	for i := 0; i < n; i++ {
		c.OnRefresh(kinds[i&4095])
	}
	out.setN("core.on_refresh_ns", float64(nowNS()-start)/float64(n), n)
}

// cacheLike is the part of cache.Cache and cache.SeqCache the replay uses.
type cacheLike interface {
	Get(key int) (interval.Interval, bool)
	Put(key int, iv interval.Interval, originalWidth float64) (evicted int, didEvict bool)
	Stats() cache.Stats
}

// timeCache replays each cache's Get/Put sequence into a fresh cache.
func timeCache(out *outcome, fresh func() cacheLike, streams [][]cacheOp) {
	var ns [2]int64
	var n [2]int
	var hits, misses int
	for _, ops := range streams {
		c := fresh()
		cur := 0
		last := nowNS()
		for i := range ops {
			op := &ops[i]
			kind := 0
			if op.put {
				kind = 1
			}
			if kind != cur {
				now := nowNS()
				ns[cur] += now - last
				cur, last = kind, now
			}
			if op.put {
				c.Put(int(op.key), op.iv, op.w)
			} else {
				c.Get(int(op.key))
			}
			n[kind]++
		}
		ns[cur] += nowNS() - last
		st := c.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	out.setN("cache.get_ns", ratio(float64(ns[0]), float64(n[0])), n[0])
	out.setN("cache.put_ns", ratio(float64(ns[1]), float64(n[1])), n[1])
	out.set("cache.replay_hit_ratio", ratio(float64(hits), float64(hits+misses)))
}

// timeQueries runs every recorded query through the planner over in-memory
// lookups: the intervals the query saw live in a slice beside it, and a
// fetch returns the recorded exact values.
func timeQueries(out *outcome, recs []lookupRec, batch bool) {
	if len(recs) == 0 {
		out.set("query.execute_us", 0)
		out.set("query.rounds_per_max", 0)
		return
	}
	var rec *lookupRec
	slot := func(key int) int {
		for i, k := range rec.q.Keys {
			if k == key {
				return i
			}
		}
		return -1
	}
	get := func(key int) (interval.Interval, bool) {
		i := slot(key)
		return rec.ivs[i], rec.ok[i]
	}
	rounds, maxes := 0, 0
	vals := make([]float64, 0, 16)
	fetchBatch := func(keys []int) []float64 {
		rounds++
		vals = vals[:0]
		for _, k := range keys {
			vals = append(vals, rec.vals[slot(k)])
		}
		return vals
	}
	fetchOne := func(key int) float64 { return rec.vals[slot(key)] }
	start := nowNS()
	for i := range recs {
		rec = &recs[i]
		if batch {
			before := rounds
			query.ExecuteBatchRamp(*rec.q, get, fetchBatch, query.DefaultRamp)
			if rec.q.Kind == workload.Max {
				maxes++
			} else {
				rounds = before // only MAX/MIN refine in rounds
			}
		} else {
			query.Execute(*rec.q, get, fetchOne)
		}
	}
	out.setN("query.execute_us", float64(nowNS()-start)/1e3/float64(len(recs)), len(recs))
	out.set("query.rounds_per_max", ratio(float64(rounds), float64(maxes)))
}

// netCost is the codec's time and size for one message shape.
type netCost struct {
	encNS, decNS float64
	bytes        int
}

// timeNetproto encodes and decodes one message shape many times.
func timeNetproto(m netproto.Message) netCost {
	const iters = 20000
	buf := make([]byte, 0, 1<<14)
	var err error
	start := nowNS()
	for i := 0; i < iters; i++ {
		if buf, err = netproto.AppendFrame(buf[:0], m); err != nil {
			return netCost{}
		}
	}
	enc := float64(nowNS()-start) / iters
	dec := netproto.NewStreamDecoder()
	sink := func(netproto.Message) error { return nil }
	start = nowNS()
	for i := 0; i < iters; i++ {
		if err := dec.Feed(buf, sink); err != nil {
			return netCost{}
		}
	}
	return netCost{encNS: enc, decNS: float64(nowNS()-start) / iters, bytes: len(buf)}
}

func refreshBatchOf(id uint64, n int) *netproto.RefreshBatch {
	if n < 1 {
		n = 1
	}
	rb := &netproto.RefreshBatch{ID: id, Items: make([]netproto.RefreshItem, n)}
	for i := range rb.Items {
		rb.Items[i] = netproto.RefreshItem{Key: int64(i * 37), Kind: netproto.KindValueInitiated, Value: 100.5, Lo: 99.5, Hi: 101.5, OriginalWidth: 2}
	}
	return rb
}

func readMultiOf(n int) *netproto.ReadMulti {
	if n < 1 {
		n = 1
	}
	rm := &netproto.ReadMulti{ID: 7, Keys: make([]int64, n)}
	for i := range rm.Keys {
		rm.Keys[i] = int64(i * 37)
	}
	return rm
}

// netAllocs is the heap allocations per message of the steady-state codec
// on the given shapes.
func netAllocs(msgs ...netproto.Message) float64 {
	buf := make([]byte, 0, 1<<14)
	dec := netproto.NewStreamDecoder()
	sink := func(netproto.Message) error { return nil }
	round := func() {
		for _, m := range msgs {
			buf, _ = netproto.AppendFrame(buf[:0], m) // shapes were encoded once already by timeNetproto
			_ = dec.Feed(buf, sink)
		}
	}
	round()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	const iters = 2000
	for i := 0; i < iters; i++ {
		round()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(iters*len(msgs)*2)
}

// timeWatch times watch.Notify with a consumer draining the stream.
func timeWatch(out *outcome, keys int, n int) {
	if n == 0 {
		out.set("watch.notify_ns", 0)
		return
	}
	w := watch.New(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range w.Updates() {
		}
	}()
	iv := interval.Interval{Lo: 1, Hi: 3}
	start := nowNS()
	for i := 0; i < n; i++ {
		w.Notify(i%keys, iv)
	}
	out.setN("watch.notify_ns", float64(nowNS()-start)/float64(n), n)
	w.Close()
	<-done
}

// replayQueryZipf derives and times the layers of the query_zipf run.
func replayQueryZipf(e *runEnv, out *outcome, in *qzInputs, qlog []queryRec, conns int, mix replayMix) {
	began := time.Now()
	if len(qlog) > maxReplayQueries {
		qlog = qlog[:maxReplayQueries]
	}
	factory := controllerFactory(paramAlpha, qzInitialWidth)
	prep := func(src *source.Source) {
		for k, v := range in.host.Initial {
			src.SetInitial(k, v)
		}
	}
	src := source.New(factory)
	prep(src)
	caches := make([]*cache.Cache, conns)
	streams := make([][]cacheOp, conns)
	for c := range caches {
		caches[c] = cache.New(qzCache)
	}
	var ops []srcOp
	vir, qir := 0, 0
	set := func(u update) {
		ops = append(ops, srcOp{key: u.Key, v: u.Value})
		for _, r := range src.Set(int(u.Key), u.Value) {
			vir++
			caches[r.CacheID].Put(r.Key, r.Interval, r.OriginalWidth)
			streams[r.CacheID] = append(streams[r.CacheID], cacheOp{put: true, key: int32(r.Key), iv: r.Interval, w: r.OriginalWidth})
		}
	}
	for _, u := range in.host.Warm {
		set(u)
	}
	recs := make([]lookupRec, 0, len(qlog))
	fi := 0
	for i := range qlog {
		qr := &qlog[i]
		for fi < len(in.host.Feed) && in.host.Feed[fi].Due <= qr.at {
			set(in.host.Feed[fi])
			fi++
		}
		c := qr.conn
		rec := lookupRec{q: qr.q, ivs: make([]interval.Interval, len(qr.q.Keys)), ok: make([]bool, len(qr.q.Keys)), vals: make([]float64, len(qr.q.Keys))}
		for j, k := range qr.q.Keys {
			rec.vals[j], _ = src.Value(k)
			rec.ivs[j], rec.ok[j] = caches[c].Peek(k)
		}
		get := func(key int) (interval.Interval, bool) {
			streams[c] = append(streams[c], cacheOp{key: int32(key)})
			return caches[c].Get(key)
		}
		fetch := func(keys []int) []float64 {
			vals := make([]float64, len(keys))
			for j, k := range keys {
				r := src.Read(c, k)
				ops = append(ops, srcOp{read: true, cache: int32(c), key: int32(k)})
				caches[c].Put(r.Key, r.Interval, r.OriginalWidth)
				streams[c] = append(streams[c], cacheOp{put: true, key: int32(k), iv: r.Interval, w: r.OriginalWidth})
				vals[j] = r.Value
				qir++
			}
			return vals
		}
		query.ExecuteBatchRamp(*qr.q, get, fetch, query.DefaultRamp)
		recs = append(recs, rec)
	}
	ids := make([]int, conns)
	for c := range ids {
		ids[c] = c
	}
	out.set("core.mean_width", meanWidth(src, ids, qzKeys))

	timeSource(out, factory, prep, ops)
	timeController(out, paramAlpha, vir, qir)
	timeCache(out, func() cacheLike { return cache.New(qzCache) }, streams)
	timeQueries(out, recs, true)

	k := int(math.Round(mix.fetchesPerRead))
	req, reply, push := timeNetproto(readMultiOf(k)), timeNetproto(refreshBatchOf(7, k)), timeNetproto(refreshBatchOf(0, int(math.Round(mix.pushBatch))))
	pushFramesPerQuery := ratio(mix.pushesPerQuery, math.Max(mix.pushBatch, 1))
	msgs := 2*mix.framesPerQuery + pushFramesPerQuery
	out.set("netproto.encode_ns_per_msg", ratio(mix.framesPerQuery*(req.encNS+reply.encNS)+pushFramesPerQuery*push.encNS, msgs))
	out.set("netproto.decode_ns_per_msg", ratio(mix.framesPerQuery*(req.decNS+reply.decNS)+pushFramesPerQuery*push.decNS, msgs))
	out.set("netproto.bytes_per_query", mix.framesPerQuery*float64(req.bytes+reply.bytes))
	out.set("netproto.bytes_per_push", ratio(float64(push.bytes), math.Max(math.Round(mix.pushBatch), 1)))
	out.set("netproto.allocs_per_msg", netAllocs(readMultiOf(k), refreshBatchOf(7, k), refreshBatchOf(0, int(math.Round(mix.pushBatch)))))

	// Budget: the replayed layer time one query needs, against the wall time
	// one query takes in the closed loop.
	nq := float64(len(recs))
	gets, puts := 0.0, 0.0
	for _, s := range streams {
		for i := range s {
			if s[i].put {
				puts++
			} else {
				gets++
			}
		}
	}
	fetches := float64(qir) / nq
	planner := out.values["query.execute_us"]
	cacheUS := (gets/nq*out.values["cache.get_ns"] + puts/nq*out.values["cache.put_ns"]) / 1e3
	clientNet := mix.framesPerQuery * (req.encNS + reply.decNS) / 1e3
	serverNet := mix.framesPerQuery * (req.decNS + reply.encNS) / 1e3
	sourceUS := fetches * out.values["source.read_ns"] / 1e3
	out.set("client.query_self_us", mix.meanQueryUS-planner-cacheUS-clientNet)
	out.set("budget.explained_share", ratio(planner+cacheUS+clientNet+serverNet+sourceUS, mix.meanQueryUS))
	e.notef("budget per query: %.2f us wall; planner %.2f, client cache %.2f, codec %.2f (client) + %.2f (server), source reads %.2f; the rest is sockets, syscalls, locks and scheduling",
		mix.meanQueryUS, planner, cacheUS, clientNet, serverNet, sourceUS)
	e.notef("layer replay: %d queries, %d source ops, %.1f s", len(recs), len(ops), time.Since(began).Seconds())
}

// replayPushFanout derives and times the layers of the push_fanout run.
func replayPushFanout(e *runEnv, out *outcome, in *pfInputs, conns int, mix replayMix) {
	began := time.Now()
	factory := controllerFactory(0, pfWidth)
	prep := func(src *source.Source) {
		for k, v := range in.host.Initial {
			src.SetInitial(k, v)
		}
		for c := 0; c < conns; c++ {
			for k := range in.host.Initial {
				src.Subscribe(c, k)
			}
		}
	}
	src := source.New(factory)
	prep(src)
	streams := make([][]cacheOp, conns)
	var ops []srcOp
	refreshes := 0
	for _, block := range [][]update{in.host.Warm, in.host.Feed} {
		for _, u := range block {
			ops = append(ops, srcOp{key: u.Key, v: u.Value})
			for _, r := range src.Set(int(u.Key), u.Value) {
				streams[r.CacheID] = append(streams[r.CacheID], cacheOp{put: true, key: int32(r.Key), iv: r.Interval, w: r.OriginalWidth})
				refreshes++
			}
		}
	}
	ids := make([]int, conns)
	for c := range ids {
		ids[c] = c
	}
	out.set("core.mean_width", meanWidth(src, ids, pfKeys))
	timeSource(out, factory, prep, ops)
	timeController(out, 0, refreshes, 0)
	timeCache(out, func() cacheLike { return cache.New(pfCache) }, streams)
	timeWatch(out, pfKeys, refreshes)

	batch := int(math.Round(mix.pushBatch))
	push := timeNetproto(refreshBatchOf(0, batch))
	perItem := math.Max(float64(batch), 1)
	out.set("netproto.encode_ns_per_msg", push.encNS)
	out.set("netproto.decode_ns_per_msg", push.decNS)
	out.set("netproto.bytes_per_push", float64(push.bytes)/perItem)
	out.set("netproto.allocs_per_msg", netAllocs(refreshBatchOf(0, batch)))

	perPush := (push.encNS+push.decNS)/perItem + out.values["cache.put_ns"] + out.values["watch.notify_ns"]
	explained := out.values["source.set_ns"] + mix.pushesPerOp*perPush
	out.set("budget.explained_share", ratio(explained, mix.meanOpNS))
	e.notef("budget per Set: %.0f ns wall back to back; source %.0f, and %.2f pushes x (codec %.0f + client cache %.0f + watch %.0f); the rest is queues, sockets, syscalls and scheduling",
		mix.meanOpNS, out.values["source.set_ns"], mix.pushesPerOp, (push.encNS+push.decNS)/perItem, out.values["cache.put_ns"], out.values["watch.notify_ns"])
	e.notef("layer replay: %d source ops, %d refreshes, %.1f s", len(ops), refreshes, time.Since(began).Seconds())
}

// replayStandingDurable derives and times the layers of the
// standing_durable run: source, CQ engine, journal, watch.
func replayStandingDurable(e *runEnv, out *outcome, in *sdInputs, conns int) {
	began := time.Now()
	factory := controllerFactory(paramAlpha, sdInitialWidth)
	type reg struct {
		spec    cq.Spec
		cacheID int
		ivs     []interval.Interval
		vals    []float64
	}
	// Cache IDs: connections are 0..conns-1, standing queries follow.
	var specs []cq.Spec
	for c, qs := range in.queries {
		for i, q := range qs {
			specs = append(specs, cq.Spec{Owner: c, QID: uint64(i + 1), Kind: cq.AggKind(q.kind), Delta: q.delta, Keys: q.keys})
		}
	}
	var regs []reg
	prep := func(src *source.Source) {
		regs = regs[:0]
		for k, v := range in.host.Initial {
			src.SetInitial(k, v)
		}
		for i, sp := range specs {
			r := reg{spec: sp, cacheID: conns + i}
			t0 := cq.InitialTarget(sp.Kind, sp.Delta, len(sp.Keys))
			for _, k := range sp.Keys {
				src.Subscribe(r.cacheID, k)
				src.SetWidthCap(r.cacheID, k, t0)
				rf := src.Read(r.cacheID, k)
				r.ivs, r.vals = append(r.ivs, rf.Interval), append(r.vals, rf.Value)
			}
			regs = append(regs, r)
		}
	}
	newEngine := func() *cq.Engine {
		eng := cq.NewEngine()
		for _, r := range regs {
			eng.Register(r.spec, r.cacheID, r.ivs, r.vals)
		}
		return eng
	}
	type observe struct {
		cacheID, key int
		iv           interval.Interval
		val          float64
		steer        bool
	}
	src := source.New(factory)
	prep(src)
	eng := newEngine()
	var ops []srcOp
	var obs []observe
	var recs [][]wal.Record
	emits, steers := 0, 0
	observeCQ := func(r source.Refresh, allowSteer bool) []cq.Steer {
		if r.CacheID < conns {
			return nil
		}
		obs = append(obs, observe{r.CacheID, r.Key, r.Interval, r.Value, allowSteer})
		_, emit, st := eng.Observe(r.CacheID, r.Key, r.Interval, r.Value, allowSteer)
		if emit {
			emits++
		}
		return st
	}
	reads := 0
	ri := make([]int, conns)
	for bi, block := range [][]update{in.host.Warm, in.host.Feed} {
		for _, u := range block {
			// The paced exact reads due before this update of the feed, as
			// the live run interleaved them.
			for c := 0; c < conns && bi == 1; c++ {
				for ri[c] < len(in.reads[c]) && in.dues[c][ri[c]/sdReadBurst] <= u.Due {
					k := in.reads[c][ri[c]]
					r := src.Read(c, k)
					ops = append(ops, srcOp{read: true, cache: int32(c), key: int32(k)})
					recs = append(recs, []wal.Record{{Op: wal.OpWidth, Key: int64(k), Val: r.OriginalWidth}})
					ri[c]++
					reads++
				}
			}
			ops = append(ops, srcOp{key: u.Key, v: u.Value})
			rec := []wal.Record{{Op: wal.OpValue, Key: int64(u.Key), Val: u.Value}}
			var pending []cq.Steer
			for _, r := range src.Set(int(u.Key), u.Value) {
				rec = append(rec, wal.Record{Op: wal.OpWidth, Key: int64(r.Key), Val: r.OriginalWidth})
				pending = append(pending, observeCQ(r, true)...)
			}
			recs = append(recs, rec)
			for _, st := range pending {
				steers++
				if cur, ok := src.SetWidthCap(st.CacheID, st.Key, st.Target); ok && cur > st.Target {
					r := src.Read(st.CacheID, st.Key)
					ops = append(ops, srcOp{read: true, cache: int32(st.CacheID), key: int32(st.Key)})
					observeCQ(r, false)
				}
			}
		}
	}
	ids := make([]int, conns+len(specs))
	for c := range ids {
		ids[c] = c
	}
	out.set("core.mean_width", meanWidth(src, ids, sdKeys))

	// The steers changed width caps mid-stream; the timed source pass
	// replays Set and Read only, so it sees the caps of registration time.
	// That changes which Sets refresh, not what a Set or a Read costs.
	timeSource(out, factory, prep, ops)
	timeController(out, paramAlpha, len(obs), reads)

	eng = newEngine()
	start := nowNS()
	for i := range obs {
		o := &obs[i]
		eng.Observe(o.cacheID, o.key, o.iv, o.val, o.steer)
	}
	out.setN("cq.observe_ns", ratio(float64(nowNS()-start), float64(len(obs))), len(obs))
	out.set("cq.emits_per_observe", ratio(float64(emits), float64(len(obs))))
	out.set("cq.steers_per_observe", ratio(float64(steers), float64(len(obs))))

	// The journal under the same policy: Stage then Commit per update, as
	// Server.Set does.
	const shards = 4
	log, err := wal.Open(wal.Options{Dir: filepath.Join(e.dir, "walreplay"), Shards: shards, Policy: wal.FsyncInterval, Interval: sdFsyncWindow})
	if err != nil {
		e.notef("layer replay: journal not replayed: %v", err)
	} else {
		start = nowNS()
		for i, rec := range recs {
			sh := i % shards
			_ = log.Commit(sh, log.Stage(sh, rec...)) // a sticky journal error shows in Close below
		}
		took := nowNS() - start
		nrec, nbytes := log.Records(), log.Bytes()
		if err := log.Close(); err != nil {
			e.notef("layer replay: journal: %v", err)
		}
		out.setN("wal.stage_commit_ns", ratio(float64(took), float64(len(recs))), len(recs))
		out.set("wal.bytes_per_record", ratio(float64(nbytes), float64(nrec)))
	}
	timeWatch(out, len(specs), emits)

	qu := timeNetproto(&netproto.QueryUpdate{QID: 3, Value: 100.5, Lo: 99.5, Hi: 101.5})
	rd := timeNetproto(&netproto.Read{ID: 9, Key: 77})
	rf := timeNetproto(&netproto.Refresh{ID: 9, Key: 77, Kind: netproto.KindQueryInitiated, Value: 100.5, Lo: 99.5, Hi: 101.5, OriginalWidth: 2})
	w := float64(emits + 2*reads)
	out.set("netproto.encode_ns_per_msg", ratio(float64(emits)*qu.encNS+float64(reads)*(rd.encNS+rf.encNS), w))
	out.set("netproto.decode_ns_per_msg", ratio(float64(emits)*qu.decNS+float64(reads)*(rd.decNS+rf.decNS), w))
	out.set("netproto.bytes_per_query", float64(rd.bytes+rf.bytes))
	out.set("netproto.bytes_per_push", float64(qu.bytes))
	out.set("netproto.allocs_per_msg", netAllocs(&netproto.QueryUpdate{QID: 3}, &netproto.Read{ID: 9, Key: 77}, &netproto.Refresh{ID: 9, Key: 77}))
	e.notef("layer replay: %d source ops, %d observes (%d emits, %d steers), %d journal appends, %.1f s", len(ops), len(obs), emits, steers, len(recs), time.Since(began).Seconds())
}

// replayStoreMixed derives and times the layers under the Store.
func replayStoreMixed(e *runEnv, out *outcome, in *smInputs) {
	began := time.Now()
	factory := controllerFactory(paramAlpha, 4)
	const cacheID = 0
	prep := func(src *source.Source) {
		for k, v := range in.initial {
			src.SetInitial(k, v)
			src.Subscribe(cacheID, k)
		}
	}
	src := source.New(factory)
	prep(src)
	c := cache.NewSeq(smCache, nil)
	stream := make([]cacheOp, 0, smSchedule*2)
	for k := range in.initial {
		if iv, ok := src.IntervalFor(cacheID, k); ok {
			c.Put(k, iv, iv.Width())
			stream = append(stream, cacheOp{put: true, key: int32(k), iv: iv, w: iv.Width()})
		}
	}
	cur := append([]float64(nil), in.initial...)
	var ops []srcOp
	var recs []lookupRec
	vir, qir := 0, 0
	for i := range in.ops[0][:maxReplayStoreOps] {
		op := &in.ops[0][i]
		switch op.kind {
		case smGet:
			c.Get(int(op.key))
			stream = append(stream, cacheOp{key: op.key})
		case smSet:
			cur[op.key] += op.step
			ops = append(ops, srcOp{key: op.key, v: cur[op.key]})
			for _, r := range src.Set(int(op.key), cur[op.key]) {
				c.Put(r.Key, r.Interval, r.OriginalWidth)
				stream = append(stream, cacheOp{put: true, key: op.key, iv: r.Interval, w: r.OriginalWidth})
				vir++
			}
		case smDo:
			q := &in.queries[0][op.q]
			rec := lookupRec{q: q, ivs: make([]interval.Interval, len(q.Keys)), ok: make([]bool, len(q.Keys)), vals: make([]float64, len(q.Keys))}
			for j, k := range q.Keys {
				rec.vals[j] = cur[k]
				rec.ivs[j], rec.ok[j] = c.Peek(k)
			}
			query.Execute(*q, func(key int) (interval.Interval, bool) {
				stream = append(stream, cacheOp{key: int32(key)})
				return c.Get(key)
			}, func(key int) float64 {
				r := src.Read(cacheID, key)
				ops = append(ops, srcOp{read: true, cache: cacheID, key: int32(key)})
				c.Put(r.Key, r.Interval, r.OriginalWidth)
				stream = append(stream, cacheOp{put: true, key: int32(key), iv: r.Interval, w: r.OriginalWidth})
				qir++
				return r.Value
			})
			recs = append(recs, rec)
		}
	}
	out.set("core.mean_width", meanWidth(src, []int{cacheID}, smKeys))
	timeSource(out, factory, prep, ops)
	timeController(out, paramAlpha, vir, qir)
	timeCache(out, func() cacheLike { return cache.NewSeq(smCache, nil) }, [][]cacheOp{stream})
	timeQueries(out, recs, false)
	e.notef("layer replay: the first %d ops of goroutine 0's schedule, %d source ops, %d cache ops, %d queries, %.1f s", maxReplayStoreOps, len(ops), len(stream), len(recs), time.Since(began).Seconds())
}
