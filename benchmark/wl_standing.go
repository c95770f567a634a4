package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/client"
	"apcache/internal/server"
	"apcache/internal/wal"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// standing_durable: the only workload where the write-ahead log, the
// continuous-query engine and the epoll connection core do the work. The
// host runs the poller core with a WAL at fsync=interval; each connection
// keeps 16 standing aggregates registered and reads exact values, first at
// a fixed rate (staleness of the standing answers, messages per update, CPU
// per op), then closed loop (durable exact reads per second). Afterwards the
// host is killed with SIGKILL and restarted on its journal.

type sdQuery struct {
	kind  workload.AggKind
	delta float64
	keys  []int
}

type sdInputs struct {
	host    hostInputs
	tl      *timeline
	queries [][]sdQuery // per connection
	reads   [][]int     // per connection: paced ReadExact keys, sdReadBurst per sdReadEvery
	dues    [][]int64   // per connection: due offset of each paced burst
	satKeys [][]int     // per connection: closed-loop ReadExact key pool
	warmKey [][]int
}

func sdGenerate(e *runEnv, conns int) *sdInputs {
	ws := newWalks(sdKeys, subSeed(e.seed, 3))
	in := &sdInputs{}
	in.host.Initial = ws.initial()
	in.host.Warm = ws.block(sdWarmUpdates)
	in.host.Feed = ws.feed(time.Second/sdTickHz, sdPerTick, leadIn, e.dur)
	in.tl = newTimeline(in.host.Initial, in.host.Warm, in.host.Feed)
	draw := func(n int, rng interface{ Intn(int) int }) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(sdKeys)
		}
		return out
	}
	for c := 0; c < conns; c++ {
		rng := subSeed(e.seed, 30+int64(c))
		var qs []sdQuery
		for i := 0; i < sdSumQueries; i++ {
			qs = append(qs, sdQuery{workload.Sum, sdSumDelta, rng.Perm(sdKeys)[:sdSumKeys]})
		}
		for i := 0; i < sdMaxQueries; i++ {
			qs = append(qs, sdQuery{workload.Max, sdMaxDelta, rng.Perm(sdKeys)[:sdMaxKeys]})
		}
		in.queries = append(in.queries, qs)
		in.reads = append(in.reads, draw(int((leadIn+e.paced())/sdReadEvery)*sdReadBurst, rng))
		in.dues = append(in.dues, jitteredDues(rng, int((leadIn+e.paced())/sdReadEvery), sdReadEvery))
		in.satKeys = append(in.satKeys, draw(sdReadPool, rng))
		in.warmKey = append(in.warmKey, draw(sdWarmReads, rng))
	}
	return in
}

// truthOf builds the true aggregate of q over the schedule: one point per
// update of a member key, stamped with the update's due time.
func (in *sdInputs) truthOf(q sdQuery) []truthPoint {
	slot := make(map[int32]int, len(q.keys))
	cur := make([]float64, len(q.keys))
	for i, k := range q.keys {
		slot[int32(k)] = i
		cur[i] = in.host.Initial[k]
	}
	agg := func() float64 {
		switch q.kind {
		case workload.Max:
			m := math.Inf(-1)
			for _, v := range cur {
				m = math.Max(m, v)
			}
			return m
		default:
			s := 0.0
			for _, v := range cur {
				s += v
			}
			return s
		}
	}
	out := []truthPoint{{due: math.MinInt64, v: agg()}}
	step := func(u update, due int64) {
		if i, ok := slot[u.Key]; ok {
			cur[i] = u.Value
			out = append(out, truthPoint{due: due, v: agg()})
		}
	}
	for i, u := range in.host.Warm {
		step(u, warmDue(i, len(in.host.Warm)))
	}
	for _, u := range in.host.Feed {
		step(u, u.Due)
	}
	return out
}

// sdStream drains one standing query's watch and logs every answer.
type sdStream struct {
	q    sdQuery
	w    *watch.Watch
	log  []arrival // at is the wall clock until since() re-bases it
	wide int       // answers wider than the query's delta
}

func (s *sdStream) run(done *sync.WaitGroup) {
	defer done.Done()
	for u := range s.w.Updates() {
		if u.Event != watch.EventRefresh {
			continue
		}
		if u.Interval.Width() > s.q.delta+1e-9 {
			s.wide++
		}
		s.log = append(s.log, arrival{at: nowNS(), lo: u.Interval.Lo, hi: u.Interval.Hi})
	}
}

type sdSession struct {
	netSession
	streams [][]*sdStream
	wg      sync.WaitGroup
	walDir  string
}

func (s *sdSession) close() {
	s.netSession.close()
	s.wg.Wait()
}

// sdReader issues one connection's exact reads.
type sdReader struct {
	e       *runEnv
	c       *client.Client
	tl      *timeline
	t0      int64
	lat     *sliced
	lags    []float64
	paced   int64
	sat     [nSlices]int64
	failed  int64
	total   int64
	suspect []suspect
	qir     [2]int
	spans   *spanBuf
	pc      pacer
	lost    bool // the connection is gone: stop issuing, the failure is counted
}

// read issues one exact read and checks the value. due is 0 in the closed
// loop.
func (r *sdReader) read(key int, due int64, span bool) {
	start := nowNS()
	v, err := r.c.ReadExactCtx(r.e.ctx, key)
	end := nowNS()
	r.total++
	if due != 0 && err == nil {
		r.lat.add(due, float64(end-due)/1e3)
	}
	if span {
		r.spans.record("client.read_exact", start, end, uint64(r.total))
	}
	if err != nil {
		r.failed++
		r.lost = r.lost || errors.Is(err, aperrs.ErrConnLost) || errors.Is(err, aperrs.ErrClosed)
		return
	}
	// An exact read returns a value the key really had between the moment
	// the read was sent (less the grace) and the moment it returned.
	if !r.tl.holds(key, v, v, end-r.t0, end-start+int64(validityGrace)) {
		r.suspect = append(r.suspect, suspect{key: key, lo: v, hi: v, from: start - r.t0, at: end - r.t0})
	}
}

func (r *sdReader) run(paced []int, dues []int64, pool []int, pacedNS, satNS int64) {
	opened := false
	for i := 0; i < len(paced); i += sdReadBurst {
		due := r.t0 + dues[i/sdReadBurst]
		if !opened && due >= r.t0 {
			opened = true // the lead-in is over
			r.qir[0] = r.c.Stats().QueryRefreshes
		}
		idle := nowNS() <= due // see qzWorker.run
		if late := r.pc.until(due); idle {
			r.lags = append(r.lags, float64(late)/1e3)
		}
		for j := i; j < i+sdReadBurst && j < len(paced); j++ {
			r.read(paced[j], due, r.e.traced && opened)
			if opened {
				r.paced++
			}
		}
		if r.e.ctx.Err() != nil || r.lost {
			return
		}
	}
	satStart := r.t0 + pacedNS
	r.pc.until(satStart)
	r.qir[1] = r.c.Stats().QueryRefreshes
	clk := phaseClock{start: satStart, length: satNS / nSlices, traced: r.e.traced}
	helpers := make([]*sdReader, satCallers-1) // see satCallers
	var wg sync.WaitGroup
	for h := range helpers {
		hr := &sdReader{e: r.e, c: r.c, tl: r.tl, t0: r.t0, spans: r.e.tr.buf(r.spans.parentID(), 1<<14)}
		helpers[h] = hr
		wg.Add(1)
		go func() {
			defer wg.Done()
			hr.saturate(clk, pool, (h+1)*len(pool)/satCallers)
		}()
	}
	r.saturate(clk, pool, 0)
	wg.Wait()
	for _, hr := range helpers {
		for i, n := range hr.sat {
			r.sat[i] += n
		}
		r.total += hr.total
		r.failed += hr.failed
		r.suspect = append(r.suspect, hr.suspect...)
	}
}

// saturate reads keys from the pool, starting at from, until the saturated
// phase is over.
func (r *sdReader) saturate(clk phaseClock, pool []int, from int) {
	for i := from; ; i++ {
		sl := clk.slice(nowNS())
		if sl < 0 || r.e.ctx.Err() != nil || r.lost {
			break
		}
		r.read(pool[i%len(pool)], 0, clk.tracing(sl))
		r.sat[sl]++
	}
	r.spans.flush()
}

func runStandingDurable(e *runEnv) (*outcome, error) {
	conns := connCount()
	in := sdGenerate(e, conns)
	base := hostConfig{
		ConnMode: server.ConnModePoller, Alpha: paramAlpha, InitialWidth: sdInitialWidth, FlushInterval: int64(2 * time.Millisecond),
		FsyncWindow: int64(sdFsyncWindow),
		InputFile:   e.dir + "/inputs.bin", ReportFile: e.dir + "/report.json",
		PacedNS: int64(e.paced()), FeedNS: int64(e.dur), Traced: e.traced,
	}
	if err := writeInputs(base.InputFile, &in.host); err != nil {
		return nil, invalidf("%v", err)
	}

	setup := func() (*sdSession, error) {
		cfg := base
		cfg.WALDir = filepath.Join(e.dir, "wal", time.Now().Format("150405.000000"))
		if _, err := os.Stat(cfg.WALDir); err == nil {
			return nil, invalidf("WAL directory %s already exists", cfg.WALDir)
		}
		h, err := startHost(e, cfg)
		if err != nil {
			return nil, err
		}
		s := &sdSession{netSession: netSession{host: h}, walDir: cfg.WALDir}
		if h.recov != 0 {
			s.close()
			return nil, invalidf("fresh WAL directory recovered %d keys", h.recov)
		}
		if s.clients, err = dialAll(h, conns, sdCache); err != nil {
			s.close()
			return nil, err
		}
		for ci, c := range s.clients {
			var streams []*sdStream
			for _, q := range in.queries[ci] {
				w, err := c.WatchQueryCtx(e.ctx, q.kind, q.delta, q.keys...)
				if err != nil {
					s.close()
					return nil, invalidf("register standing query: %v", err)
				}
				st := &sdStream{q: q, w: w}
				streams = append(streams, st)
				s.wg.Add(1)
				go st.run(&s.wg)
			}
			s.streams = append(s.streams, streams)
		}
		if err := h.send("WARM"); err != nil {
			s.close()
			return nil, err
		}
		for ci, c := range s.clients {
			for _, k := range in.warmKey[ci] {
				if _, err := c.ReadExactCtx(e.ctx, k); err != nil {
					s.close()
					return nil, invalidf("warm-up read: %v", err)
				}
			}
		}
		if _, err := h.expect(e.ctx, "WARMED"); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	s, setupS, err := repeatSetup(e, setup, (*sdSession).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	t0 := nowNS() + int64(leadIn+30*time.Millisecond)
	setupS += float64(t0-nowNS()) / 1e9 // the lead-in under paced load is set-up too
	pacedNS, satNS := int64(e.paced()), int64(e.sat())
	wl := e.tr.open("workload."+e.workload, t0, t0+pacedNS+satNS, 0)
	e.tr.open("phase.paced", t0, t0+pacedNS, wl)
	e.tr.open("phase.saturated", t0+pacedNS, t0+pacedNS+satNS, wl)
	if err := s.host.send("START %d", t0); err != nil {
		return nil, err
	}
	readers := make([]*sdReader, conns)
	var wg sync.WaitGroup
	for i := range readers {
		r := &sdReader{e: e, c: s.clients[i], tl: in.tl, t0: t0, spans: e.tr.buf(wl, 1<<15), lat: newSliced(t0, pacedNS, len(in.reads[i])/nSlices+sdReadBurst)}
		readers[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(in.reads[i], in.dues[i], in.satKeys[i], pacedNS, satNS)
		}()
	}
	// WAL bytes appended during the paced window: the directory is sampled
	// often and only growth is summed, because compaction shrinks it.
	var walGrowth int64
	walDone := make(chan struct{})
	go func() {
		defer close(walDone)
		last := dirSize(s.walDir)
		for at := t0; at < t0+pacedNS && e.ctx.Err() == nil; at += int64(10 * time.Millisecond) {
			time.Sleep(time.Until(time.Unix(0, at)))
			now := dirSize(s.walDir)
			if now > last {
				walGrowth += now - last
			}
			last = now
		}
	}()
	wg.Wait()
	<-walDone
	if _, err := s.host.expect(e.ctx, "DONE"); err != nil {
		return nil, err
	}
	rep, err := s.host.report()
	if err != nil {
		return nil, err
	}
	if rep.ConnMode != server.ConnModePoller {
		return nil, invalidf("host fell back to the %s core", rep.ConnMode)
	}
	if err := checkLag("host feed", rep.FeedLagP50); err != nil {
		return nil, err
	}

	out := newOutcome()
	out.hostGOMAXPROCS = rep.GOMAXPROCS
	var lags []float64
	lat := newSliced(t0, pacedNS, 0)
	satCounts := make([]int64, nSlices)
	var pacedReads, qir int64
	grace := int64(validityGrace) + int64(rep.FeedLateMax*1e3)
	bad := 0
	for _, r := range readers {
		lat.merge(r.lat)
		lags = append(lags, r.lags...)
		for i, n := range r.sat {
			satCounts[i] += n
		}
		out.attempted += r.total
		out.failed += r.failed
		pacedReads += r.paced
		qir += int64(r.qir[1] - r.qir[0])
		for _, sp := range r.suspect {
			if !in.tl.holds(sp.key, sp.lo, sp.hi, sp.at, sp.at-sp.from+grace) {
				bad++
			}
		}
	}
	if out.failed > 0 {
		e.notef("FAILED %d: exact reads returned an error (a lost connection stops its readers)", out.failed)
	}
	out.fail(e, bad, "an exact read returned a value its key never had within the grace")
	sort.Float64s(lags)
	readLag := percentile(lags, 0.99)
	if err := checkLag("read generator", percentile(lags, 0.5)); err != nil {
		return nil, err
	}

	// Durability: every applied update was journaled two fsync windows ago.
	// Kill the host, count what is on disk, restart it on the same
	// directory, time the recovery and compare every key.
	want := in.tl.final()
	mismatch := 0
	for k, v := range rep.Final {
		if v != want[k] {
			mismatch++
		}
	}
	out.fail(e, mismatch, "host's final values differ from the schedule's")
	cfg := s.host.cfg
	s.host.kill()
	s.host = nil
	for _, c := range s.clients {
		c.Close()
	}
	s.wg.Wait() // the streams ended with their connections: their logs are complete
	walBytes := dirSize(s.walDir)
	records, err := countRecords(s.walDir, filepath.Join(e.dir, "walcopy"))
	if err != nil {
		return nil, invalidf("scan journal copy: %v", err)
	}
	cfg.ReportFile = e.dir + "/recovered.json"
	again, err := startHost(e, cfg)
	if err != nil {
		return nil, err
	}
	recoveryS := again.readyIn.Seconds()
	var recovered hostReport
	err = again.send("VALUES")
	if err == nil {
		_, err = again.expect(e.ctx, "DONE")
	}
	if err == nil {
		err = readJSON(cfg.ReportFile, &recovered)
	}
	again.quit()
	if err != nil {
		return nil, invalidf("recovered host: %v", err)
	}
	lost := 0
	for k, v := range rep.Final {
		if k >= len(recovered.Final) || recovered.Final[k] != v {
			lost++
		}
	}
	out.attempted += int64(len(rep.Final))
	out.fail(e, lost, "durability: a recovered value differs from the one reported before the kill")
	if again.recov != sdKeys {
		out.fail(e, sdKeys-again.recov, "durability: keys missing from the journal after the kill")
	}

	// Staleness and precision of the standing answers.
	stal := newSliced(t0, pacedNS, 1<<12)
	var total staleCount
	wide := 0
	for ci, streams := range s.streams {
		for qi, st := range streams {
			log := st.since(t0)
			total.add(replayStaleness(in.truthOf(st.q), log, 0, pacedNS, grace, stal, t0))
			wide += st.wide
			if e.traced {
				buf := e.tr.buf(wl, len(log))
				for _, a := range log {
					if a.at >= 0 {
						buf.record("watch.query_update", t0+a.at, t0+a.at, uint64(ci*100+qi))
					}
				}
				buf.flush()
			}
		}
	}
	updates := total.deliveries
	out.attempted += int64(updates)
	out.fail(e, wide, "precision: a standing answer wider than its delta")
	out.fail(e, total.overGrace, "validity: a standing answer stayed invalid for longer than the grace")

	pacedS := e.paced().Seconds()
	ops := float64(rep.PacedApplied) + float64(pacedReads)
	hostCPU := rep.PacedCPUUser + rep.PacedCPUSys - rep.PacedSpin
	cost := paramCvr*float64(updates) + paramCqr*float64(qir)
	satRate := sliceRates(satCounts, satNS/nSlices)
	out.set("setup_s", setupS)
	out.setN("timed.latency_p50_us", lat.p50(), lat.count())
	out.setN("timed.latency_p99_us", lat.tail(0.99), lat.count())
	out.setN("cq.staleness_p50_us", stal.p50(), stal.count())
	out.setN("cq.staleness_p99_us", stal.tail(0.99), stal.count())
	out.setN("timed.ops_per_s", satRate, int(sum64(satCounts)))
	out.set("refresh_cost_per_kop", cost/(ops/1000))
	out.set("timed.cpu_us_per_op", hostCPU*1e6/ops)
	out.set("rss_mb", rep.PeakRSSMB)
	out.set("server.cpu_util", hostCPU/pacedS)
	e.notef("paced: %d updates/s fed, %d standing queries, %d exact reads/s in bursts of %d; %d answers pushed, %d of them closing a stale episode",
		sdUpdatesPerS, rep.Queries, conns*sdReadBurst*int(time.Second/sdReadEvery), sdReadBurst, updates, stal.count())
	e.notef("recovery: %.4f s from exec to listening on the killed host's journal: %d bytes, %d records, %d keys recovered",
		recoveryS, walBytes, records, again.recov)
	e.notef("generator: read lag p99 %.0f us, feed woke late by p50/p99 %.0f/%.0f us; updates applied late by p99/max %.0f/%.0f us", readLag, rep.FeedLagP50, rep.FeedLagP99, rep.FeedLateP99, rep.FeedLateMax)
	e.notef("flush policy: fsync=interval, window %v; connection core: %s", sdFsyncWindow, rep.ConnMode)

	out.set("gen.feed_lag_p99_us", rep.FeedLagP99)
	out.set("gen.query_lag_p99_us", readLag)
	out.set("cq.updates_per_set", ratio(float64(updates), float64(rep.PacedApplied)))
	out.set("wal.recovery_s", recoveryS)
	out.set("wal.records_recovered_per_s", ratio(float64(records), recoveryS))
	out.set("wal.bytes_per_set", ratio(float64(walGrowth), float64(rep.PacedApplied)))
	out.set("server.refresh_cost_us", rep.RefreshCost)
	out.set("server.cpu_sys_share", ratio(rep.PacedCPUSys, rep.PacedCPUUser+rep.PacedCPUSys))
	out.set("server.pushes_per_set", ratio(float64(rep.PacedPushes), float64(rep.PacedApplied)))
	out.set("server.push_overflows_per_s", float64(rep.PacedOverfl)/pacedS)
	out.set("server.push_merges_per_s", float64(rep.PacedMerges)/pacedS)
	out.set("trace.overhead_ratio", overheadRatio(satCounts, e.traced))
	if e.traced {
		reads := e.tr.durations("client.read_exact", 1e3)
		sort.Float64s(reads)
		// The poller core's request path under load: an exact read is the
		// smallest round trip this workload makes.
		out.setN("server.ping_rtt_p50_us", percentile(reads, 0.5), len(reads))
		out.setN("server.ping_rtt_p99_us", percentile(reads, 0.99), len(reads))
		replayStandingDurable(e, out, in, conns)
	}
	return out, nil
}

// since returns the stream's log with times relative to t0.
func (s *sdStream) since(t0 int64) []arrival {
	out := make([]arrival, len(s.log))
	for i, a := range s.log {
		a.at -= t0
		out[i] = a
	}
	return out
}

func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// countRecords counts the journal's records on a copy of the directory:
// the scan truncates torn tails in place, and the recovery being timed must
// find the directory exactly as the kill left it.
func countRecords(dir, scratch string) (int, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(scratch, ent.Name()), data, 0o644); err != nil {
			return 0, err
		}
	}
	scan, err := wal.ScanDir(wal.OSFS, scratch)
	if err != nil {
		return 0, err
	}
	return len(scan.Records), nil
}
