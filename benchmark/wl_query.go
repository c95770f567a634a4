package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/client"
	"apcache/internal/server"
	"apcache/internal/workload"
)

// query_zipf: the paper's own regime over the whole read path. The host
// feeds 8192 random walks open loop; two client connections with caches an
// eighth the size of the key space issue bounded SUM/MAX queries over
// zipf-skewed keys, first at a fixed rate (latency, refresh cost, CPU per
// op), then closed loop (capacity).

type qzInputs struct {
	host  hostInputs
	tl    *timeline
	warm  [][]workload.Query
	paced [][]workload.Query
	dues  [][]int64 // per connection: due offset of each paced burst
	sat   [][]workload.Query
}

func qzGenerate(e *runEnv, conns int) *qzInputs {
	ws := newWalks(qzKeys, subSeed(e.seed, 1))
	in := &qzInputs{}
	in.host.Initial = ws.initial()
	in.host.Warm = ws.block(qzWarmUpdates)
	in.host.Feed = ws.feed(time.Second/qzTickHz, qzPerTick, leadIn, e.dur)
	in.tl = newTimeline(in.host.Initial, in.host.Warm, in.host.Feed)
	kinds := []workload.AggKind{workload.Sum, workload.Max}
	nPaced := int((leadIn+e.paced())/qzBurstEvery) * qzBurst
	for c := 0; c < conns; c++ {
		rng := subSeed(e.seed, 10+int64(c))
		in.warm = append(in.warm, zipfQueries(rng, qzWarmQueries, qzKeys, qzKeysPerQuery, qzZipfS, qzDeltaMax, kinds))
		in.paced = append(in.paced, zipfQueries(rng, nPaced, qzKeys, qzKeysPerQuery, qzZipfS, qzDeltaMax, kinds))
		in.dues = append(in.dues, jitteredDues(rng, nPaced/qzBurst, qzBurstEvery))
		in.sat = append(in.sat, zipfQueries(rng, qzSatQueryPool, qzKeys, qzKeysPerQuery, qzZipfS, qzDeltaMax, kinds))
	}
	return in
}

// netSession is a started host with its connected clients.
type netSession struct {
	host    *hostProc
	clients []*client.Client
}

func (s *netSession) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.host != nil {
		s.host.quit()
	}
}

// dialAll opens conns client connections to the host.
func dialAll(h *hostProc, conns, cacheSize int) ([]*client.Client, error) {
	var out []*client.Client
	for i := 0; i < conns; i++ {
		c, err := client.DialConfig(h.addr, client.Config{CacheSize: cacheSize, Timeout: 10 * time.Second})
		if err != nil {
			for _, o := range out {
				o.Close()
			}
			return nil, invalidf("dial host: %v", err)
		}
		out = append(out, c)
	}
	return out, nil
}

// suspect is a validity check that failed against the fixed grace and is
// judged again once the host has said how late its feed ran: validity is a
// promise about what the source had applied, and an update the generator
// applied late was not there to be reflected.
type suspect struct {
	q        *workload.Query // nil for a held-interval check
	key      int
	lo, hi   float64
	from, at int64
}

type queryRec struct {
	at      int64 // completion, relative to T0
	conn    int
	q       *workload.Query
	fetched int
}

type qzWorker struct {
	e     *runEnv
	conn  int
	c     *client.Client
	tl    *timeline
	t0    int64
	lat   *sliced
	lags  []float64
	sat   [nSlices]int64
	stats [3]client.Stats // at T0, at the end of the paced phase, at the end

	attempted, failed   int64
	pacedQueries        int64
	fetched, fetchedOps int64
	suspects            []suspect
	spans               *spanBuf
	qlog                []queryRec
	pc                  pacer
	lost                bool // the connection is gone: stop issuing, the failure is counted
}

// one issues one query and checks its answer. due is 0 in the closed loop.
func (w *qzWorker) one(q *workload.Query, due int64, span bool) {
	start := nowNS()
	ans, err := w.c.QueryCtx(w.e.ctx, *q)
	end := nowNS()
	w.attempted++
	if span {
		w.spans.record("client.query", start, end, uint64(w.attempted))
	}
	if err != nil {
		w.failed++
		w.lost = w.lost || errors.Is(err, aperrs.ErrConnLost) || errors.Is(err, aperrs.ErrClosed)
		return
	}
	if due != 0 {
		w.lat.add(due, float64(end-due)/1e3)
	}
	w.fetched += int64(len(ans.Refreshed))
	w.fetchedOps++
	if w.e.traced {
		w.qlog = append(w.qlog, queryRec{at: end - w.t0, conn: w.conn, q: q, fetched: len(ans.Refreshed)})
	}
	grace := int64(validityGrace)
	if ans.Result.Width() > q.Delta+1e-9 {
		w.failed++ // precision: the answer is wider than asked
	}
	if !w.tl.answerPossible(*q, ans.Result.Lo, ans.Result.Hi, start-w.t0-grace, end-w.t0) {
		w.suspects = append(w.suspects, suspect{q: q, lo: ans.Result.Lo, hi: ans.Result.Hi, from: start - w.t0, at: end - w.t0})
	}
	// What the cache holds for the query's keys now. The clock is read again
	// after the lookup: this goroutine may have been off the CPU in between,
	// and an interval installed meanwhile is valid for a later value.
	for _, k := range q.Keys {
		iv, ok := w.c.Get(k)
		if now := nowNS() - w.t0; ok && !w.tl.holds(k, iv.Lo, iv.Hi, now, now-(end-w.t0)+grace) {
			w.suspects = append(w.suspects, suspect{key: k, lo: iv.Lo, hi: iv.Hi, from: end - w.t0, at: now})
		}
	}
}

func (w *qzWorker) run(paced []workload.Query, dues []int64, sat []workload.Query, pacedNS, satNS int64) {
	satStart := w.t0 + pacedNS
	opened := false
	for i := 0; i < len(paced); i += qzBurst {
		due := w.t0 + dues[i/qzBurst]
		if !opened && due >= w.t0 {
			// The lead-in is over: the window opens with this burst.
			opened = true
			w.stats[0] = w.c.Stats()
		}
		// Only a burst that found the connection idle says how late the
		// generator woke; one queued behind a slow burst is backlog, and
		// its wait is in the latency, where it belongs.
		idle := nowNS() <= due
		if late := w.pc.until(due); idle {
			w.lags = append(w.lags, float64(late)/1e3)
		}
		for j := i; j < i+qzBurst && j < len(paced); j++ {
			w.one(&paced[j], due, w.e.traced && opened)
			if opened {
				w.pacedQueries++
			}
		}
		if w.e.ctx.Err() != nil || w.lost {
			return
		}
	}
	w.pc.until(satStart)
	w.stats[1] = w.c.Stats()
	// Saturated: satCallers closed-loop callers share the connection, so
	// that a CPU and not one round trip's chain of wake-ups is the limit.
	clk := phaseClock{start: satStart, length: satNS / nSlices, traced: w.e.traced}
	helpers := make([]*qzWorker, satCallers-1)
	var wg sync.WaitGroup
	for h := range helpers {
		hw := &qzWorker{e: w.e, conn: w.conn, c: w.c, tl: w.tl, t0: w.t0, spans: w.e.tr.buf(w.spans.parentID(), 1<<14)}
		helpers[h] = hw
		wg.Add(1)
		go func() {
			defer wg.Done()
			hw.saturate(clk, sat, (h+1)*len(sat)/satCallers)
		}()
	}
	w.saturate(clk, sat, 0)
	wg.Wait()
	w.stats[2] = w.c.Stats()
	for _, hw := range helpers {
		for i, n := range hw.sat {
			w.sat[i] += n
		}
		w.attempted += hw.attempted
		w.failed += hw.failed
		w.fetched += hw.fetched
		w.fetchedOps += hw.fetchedOps
		w.suspects = append(w.suspects, hw.suspects...)
		w.qlog = append(w.qlog, hw.qlog...)
	}
	w.spans.flush()
}

// saturate issues queries from the pool, starting at from, until the
// saturated phase is over.
func (w *qzWorker) saturate(clk phaseClock, sat []workload.Query, from int) {
	for i := from; ; i++ {
		sl := clk.slice(nowNS())
		if sl < 0 || w.e.ctx.Err() != nil || w.lost {
			break
		}
		w.one(&sat[i%len(sat)], 0, clk.tracing(sl))
		w.sat[sl]++
	}
	w.spans.flush()
}

// prober sends one Ping every qzPingEvery on a connection that is busy with
// queries: the request path's round trip under load. It is part of the
// tracing, so in the saturated phase it runs in the traced slices only.
func prober(ctx context.Context, c *client.Client, t0, pacedNS, satNS int64, buf *spanBuf, wg *sync.WaitGroup) {
	defer wg.Done()
	defer buf.flush()
	clk := phaseClock{start: t0 + pacedNS, length: satNS / nSlices, traced: true}
	end := t0 + pacedNS + satNS
	for due := t0; due < end && ctx.Err() == nil; due += int64(qzPingEvery) {
		// A Go timer is late by up to a millisecond, which a probe timed
		// from its own send does not mind; the precise pacer would block a
		// scheduler slot the query workers need.
		time.Sleep(time.Until(time.Unix(0, due)))
		if sl := clk.slice(due); sl >= 0 && !clk.tracing(sl) {
			continue
		}
		start := nowNS()
		if err := c.PingCtx(ctx); err != nil {
			return
		}
		buf.record("client.ping", start, nowNS(), 0)
	}
}

func runQueryZipf(e *runEnv) (*outcome, error) {
	conns := connCount()
	in := qzGenerate(e, conns)
	cfg := hostConfig{
		ConnMode: server.ConnModeGoroutine, Alpha: paramAlpha, InitialWidth: qzInitialWidth, FlushInterval: int64(2 * time.Millisecond),
		InputFile: e.dir + "/inputs.bin", ReportFile: e.dir + "/report.json",
		PacedNS: int64(e.paced()), FeedNS: int64(e.dur), Traced: e.traced,
	}
	if err := writeInputs(cfg.InputFile, &in.host); err != nil {
		return nil, invalidf("%v", err)
	}

	setup := func() (*netSession, error) {
		h, err := startHost(e, cfg)
		if err != nil {
			return nil, err
		}
		s := &netSession{host: h}
		if s.clients, err = dialAll(h, conns, qzCache); err != nil {
			s.close()
			return nil, err
		}
		// Warm-up: the host applies one update per key back to back while
		// every connection fills its cache with closed-loop queries.
		if err := h.send("WARM"); err != nil {
			s.close()
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for i, c := range s.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range in.warm[i] {
					if _, err := c.QueryCtx(e.ctx, in.warm[i][j]); err != nil {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		_, err = h.expect(e.ctx, "WARMED")
		for _, werr := range errs {
			if err == nil && werr != nil {
				err = invalidf("warm-up query: %v", werr)
			}
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	s, setupS, err := repeatSetup(e, setup, (*netSession).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	t0 := nowNS() + int64(leadIn+30*time.Millisecond)
	if err := s.host.send("START %d", t0); err != nil {
		return nil, err
	}
	setupS += float64(t0-nowNS()) / 1e9 // the lead-in under paced load is set-up too
	pacedNS, satNS := int64(e.paced()), int64(e.sat())
	wl := e.tr.open("workload."+e.workload, t0, t0+pacedNS+satNS, 0)
	phases := [2]uint64{e.tr.open("phase.paced", t0, t0+pacedNS, wl), e.tr.open("phase.saturated", t0+pacedNS, t0+pacedNS+satNS, wl)}
	workers := make([]*qzWorker, conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := &qzWorker{
			e: e, conn: i, c: s.clients[i], tl: in.tl, t0: t0,
			lat:   newSliced(t0, pacedNS, len(in.paced[i])/nSlices+qzBurst),
			spans: e.tr.buf(phases[0], 1<<16),
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(in.paced[i], in.dues[i], in.sat[i], pacedNS, satNS)
		}()
		if e.traced {
			wg.Add(1)
			go prober(e.ctx, s.clients[i], t0, pacedNS, satNS, e.tr.buf(wl, 1<<12), &wg)
		}
	}
	wg.Wait()
	if _, err := s.host.expect(e.ctx, "DONE"); err != nil {
		return nil, err
	}
	rep, err := s.host.report()
	if err != nil {
		return nil, err
	}

	// Fold the workers together.
	out := newOutcome()
	out.hostGOMAXPROCS = rep.GOMAXPROCS
	lat := newSliced(t0, pacedNS, 0)
	satCounts := make([]int64, nSlices)
	var lags []float64
	var vir, qir, sent, recv, hits, misses, evicts, pacedQ, fetched, fetchedOps int64
	var suspects []suspect
	var qlog []queryRec
	for _, w := range workers {
		lat.merge(w.lat)
		lags = append(lags, w.lags...)
		for i, n := range w.sat {
			satCounts[i] += n
		}
		out.attempted += w.attempted
		out.failed += w.failed
		pacedQ += w.pacedQueries
		fetched += w.fetched
		fetchedOps += w.fetchedOps
		suspects = append(suspects, w.suspects...)
		qlog = append(qlog, w.qlog...)
		a, b := w.stats[0], w.stats[1]
		vir += int64(b.ValueRefreshes - a.ValueRefreshes)
		qir += int64(b.QueryRefreshes - a.QueryRefreshes)
		sent += int64(b.FramesSent - a.FramesSent)
		recv += int64(b.FramesReceived - a.FramesReceived)
		hits += int64(b.Cache.Hits - a.Cache.Hits)
		misses += int64(b.Cache.Misses - a.Cache.Misses)
		evicts += int64(b.Cache.Evicts - a.Cache.Evicts)
	}
	if out.failed > 0 {
		e.notef("FAILED %d: query errors or answers wider than their delta", out.failed)
	}
	sort.Float64s(lags)
	queryLag := percentile(lags, 0.99)
	if err := checkLag("query generator", percentile(lags, 0.5)); err != nil {
		return nil, err
	}
	if err := checkLag("host feed", rep.FeedLagP50); err != nil {
		return nil, err
	}
	// Judge the suspects again, allowing for how late the feed really ran.
	grace := int64(validityGrace) + int64(rep.FeedLateMax*1e3)
	bad := 0
	for _, sp := range suspects {
		if sp.q != nil {
			if !in.tl.answerPossible(*sp.q, sp.lo, sp.hi, sp.from-grace, sp.at) {
				bad++
			}
		} else if !in.tl.holds(sp.key, sp.lo, sp.hi, sp.at, sp.at-sp.from+grace) {
			bad++
		}
	}
	out.fail(e, bad, "validity: an answer or a held interval matches no value scheduled within the grace")

	pacedS := e.paced().Seconds()
	ops := float64(rep.PacedApplied) + float64(pacedQ)
	cost := paramCvr*float64(vir) + paramCqr*float64(qir)
	hostCPU := rep.PacedCPUUser + rep.PacedCPUSys - rep.PacedSpin
	satRate := sliceRates(satCounts, satNS/nSlices)
	out.set("setup_s", setupS)
	out.setN("timed.latency_p50_us", lat.p50(), lat.count())
	out.setN("timed.latency_p99_us", lat.tail(0.99), lat.count())
	out.setN("timed.ops_per_s", satRate, int(sum64(satCounts)))
	out.set("refresh_cost_per_kop", cost/(ops/1000))
	out.set("timed.cpu_us_per_op", hostCPU*1e6/ops)
	out.set("rss_mb", rep.PeakRSSMB)
	out.set("cost_rate", cost/pacedS)
	out.set("server.cpu_util", hostCPU/pacedS)
	e.notef("paced: %d queries/s offered on %d connections (bursts of %d every %v, jittered), %d updates/s fed; cost rate Ω = %.1f cost/s (VIR %d, QIR %d)",
		conns*qzPacedPerConn, conns, qzBurst, qzBurstEvery, qzUpdatesPerSec, cost/pacedS, vir, qir)
	e.notef("generator: query lag p99 %.0f us, feed woke late by p50/p99 %.0f/%.0f us; updates applied late by p99/max %.0f/%.0f us", queryLag, rep.FeedLagP50, rep.FeedLagP99, rep.FeedLateP99, rep.FeedLateMax)

	// Per-layer counters at the same boundaries.
	out.set("gen.query_lag_p99_us", queryLag)
	out.set("gen.feed_lag_p99_us", rep.FeedLagP99)
	out.set("client.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	out.set("client.evictions_per_s", float64(evicts)/pacedS)
	out.set("client.frames_sent_per_query", ratio(float64(sent), float64(pacedQ)))
	out.set("client.refreshes_per_frame", ratio(float64(vir+qir), float64(recv)))
	out.set("server.flush_batch_mean", ratio(float64(vir+qir), float64(recv)))
	out.set("server.refresh_cost_us", rep.RefreshCost)
	out.set("server.cpu_sys_share", ratio(rep.PacedCPUSys, rep.PacedCPUUser+rep.PacedCPUSys))
	out.set("server.pushes_per_set", ratio(float64(rep.PacedPushes), float64(rep.PacedApplied)))
	out.set("server.push_overflows_per_s", float64(rep.PacedOverfl)/pacedS)
	out.set("server.push_merges_per_s", float64(rep.PacedMerges)/pacedS)
	out.set("query.fetches_per_query", ratio(float64(fetched), float64(fetchedOps)))
	out.set("trace.overhead_ratio", overheadRatio(satCounts, e.traced))
	if e.traced {
		pings := e.tr.durations("client.ping", 1e3)
		sort.Float64s(pings)
		out.setN("server.ping_rtt_p50_us", percentile(pings, 0.5), len(pings))
		out.setN("server.ping_rtt_p99_us", percentile(pings, 0.99), len(pings))
		sort.Slice(qlog, func(i, j int) bool { return qlog[i].at < qlog[j].at })
		replayQueryZipf(e, out, in, qlog, conns, replayMix{
			framesPerQuery: ratio(float64(sent), float64(pacedQ)),
			fetchesPerRead: ratio(float64(qir), float64(sent)),
			pushBatch:      ratio(float64(vir), float64(recv-sent)),
			pushesPerQuery: ratio(float64(vir), float64(pacedQ)),
			meanQueryUS:    1e6 * float64(conns) / satRate,
		})
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum64(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}
