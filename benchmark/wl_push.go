package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/client"
	"apcache/internal/server"
	"apcache/internal/watch"
)

// push_fanout: the same server, wire and client layers used the other way
// round. Two connections watch every key; the host applies bursts of
// updates at a fixed rate (staleness of the delivered refreshes, pushes per
// update, CPU per update) and then calls Set back to back (capacity with two
// full subscribers attached, and the overflow/merge path). No queries.
// Widths are frozen so push volume is a property of the schedule.

type pfInputs struct {
	host hostInputs
	tl   *timeline
}

func pfGenerate(e *runEnv) *pfInputs {
	ws := newWalks(pfKeys, subSeed(e.seed, 2))
	in := &pfInputs{}
	in.host.Initial = ws.initial()
	in.host.Warm = ws.block(pfWarmUpdates)
	in.host.Feed = ws.feed(pfBurstEvery, pfBurst, leadIn, e.paced())
	in.host.Sat = ws.cycle(pfSatBlock)
	in.tl = newTimeline(in.host.Initial, in.host.Warm, in.host.Feed)
	return in
}

// keyedArrival is one refresh as the watch stream delivered it.
type keyedArrival struct {
	key int32
	arrival
}

// pfConsumer drains one connection's watch stream. Until the saturated
// phase starts it logs every delivery for the staleness replay; after that
// it only counts, because the replay has no due times to judge against.
type pfConsumer struct {
	w        *watch.Watch
	t0       int64
	satStart int64
	log      []keyedArrival
	satSeen  int64
	last     atomic.Int64 // wall clock of the latest delivery
	spans    *spanBuf
}

func (c *pfConsumer) run(done *sync.WaitGroup) {
	defer done.Done()
	for u := range c.w.Updates() {
		if u.Event != watch.EventRefresh {
			continue
		}
		at := nowNS()
		c.last.Store(at)
		if at >= c.satStart {
			c.satSeen++
			continue
		}
		c.log = append(c.log, keyedArrival{key: int32(u.Key), arrival: arrival{at: at - c.t0, lo: u.Interval.Lo, hi: u.Interval.Hi}})
	}
}

type pfSession struct {
	netSession
	cons []*pfConsumer
	wg   sync.WaitGroup
}

func (s *pfSession) close() {
	s.netSession.close() // closing a client ends its watch streams
	s.wg.Wait()
}

func runPushFanout(e *runEnv) (*outcome, error) {
	conns := connCount()
	in := pfGenerate(e)
	cfg := hostConfig{
		ConnMode: server.ConnModeGoroutine, Alpha: 0, InitialWidth: pfWidth, FlushInterval: int64(2 * time.Millisecond),
		InputFile: e.dir + "/inputs.bin", ReportFile: e.dir + "/report.json",
		PacedNS: int64(e.paced()), FeedNS: int64(e.paced()), SatNS: int64(e.sat()), Traced: e.traced,
		WarmChunk: pfWarmChunk, WarmGapNS: int64(time.Millisecond),
	}
	if err := writeInputs(cfg.InputFile, &in.host); err != nil {
		return nil, invalidf("%v", err)
	}
	keys := make([]int, pfKeys)
	for k := range keys {
		keys[k] = k
	}

	// The consumers need T0 before they start, so set-up ends with the
	// subscriptions installed and the warm-up applied; the warm-up's pushes
	// are drained by the consumers once they run.
	setup := func() (*pfSession, error) {
		h, err := startHost(e, cfg)
		if err != nil {
			return nil, err
		}
		s := &pfSession{netSession: netSession{host: h}}
		if s.clients, err = dialAll(h, conns, pfCache); err != nil {
			s.close()
			return nil, err
		}
		for _, c := range s.clients {
			w, err := c.WatchCtx(e.ctx, keys...)
			if err != nil {
				s.close()
				return nil, invalidf("watch: %v", err)
			}
			con := &pfConsumer{w: w, log: make([]keyedArrival, 0, 1<<16)}
			con.satStart = int64(1) << 62 // not known before START; nothing is "saturated" yet
			s.cons = append(s.cons, con)
		}
		if err := s.host.send("WARM"); err != nil {
			s.close()
			return nil, err
		}
		if _, err := s.host.expect(e.ctx, "WARMED"); err != nil {
			s.close()
			return nil, err
		}
		for _, c := range s.clients {
			if err := c.PingCtx(e.ctx); err != nil {
				s.close()
				return nil, invalidf("ping after warm-up: %v", err)
			}
		}
		return s, nil
	}
	s, setupS, err := repeatSetup(e, setup, func(s *pfSession) {
		for _, con := range s.cons {
			s.wg.Add(1)
			go con.run(&s.wg) // drain so the stream's pump can exit
		}
		s.close()
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	t0 := nowNS() + int64(leadIn+30*time.Millisecond)
	setupS += float64(t0-nowNS()) / 1e9 // the lead-in under paced load is set-up too
	pacedNS, satNS := int64(e.paced()), int64(e.sat())
	satStart := t0 + pacedNS
	wl := e.tr.open("workload."+e.workload, t0, satStart+satNS, 0)
	e.tr.open("phase.paced", t0, satStart, wl)
	e.tr.open("phase.saturated", satStart, satStart+satNS, wl)
	for _, con := range s.cons {
		con.t0, con.satStart = t0, satStart
		con.spans = e.tr.buf(wl, 1<<16)
		s.wg.Add(1)
		go con.run(&s.wg)
	}
	if err := s.host.send("START %d", t0); err != nil {
		return nil, err
	}
	// Counters at the edges of the paced window.
	var edge [2][]client.Stats
	var coalesced [2]int
	for i, at := range []int64{t0, satStart} {
		time.Sleep(time.Until(time.Unix(0, at)))
		for j, c := range s.clients {
			edge[i] = append(edge[i], c.Stats())
			coalesced[i] += s.cons[j].w.Coalesced()
		}
	}
	if _, err := s.host.expect(e.ctx, "DONE"); err != nil {
		return nil, err
	}
	rep, err := s.host.report()
	if err != nil {
		return nil, err
	}
	if err := checkLag("host feed", rep.FeedLagP50); err != nil {
		return nil, err
	}

	// Quiesce: the host has stopped; wait until both streams have been
	// silent for a while, then every cached interval must contain the
	// final value the host reports.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		quiet := true
		for _, con := range s.cons {
			if nowNS()-con.last.Load() < int64(pfQuiesceAfter) {
				quiet = false
			}
		}
		if quiet {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	out := newOutcome()
	out.hostGOMAXPROCS = rep.GOMAXPROCS
	out.attempted = int64(rep.PacedApplied) + rep.SatApplied

	// The host applied what it was given: its final values are the ones the
	// schedule ends on (the saturated cycle returns to its start).
	want := in.tl.final()
	satLeft := int(rep.SatApplied % int64(len(in.host.Sat)))
	for _, u := range in.host.Sat[:satLeft] {
		want[u.Key] = u.Value
	}
	mismatch, stale := 0, 0
	for k, v := range rep.Final {
		if v != want[k] {
			mismatch++
		}
		for _, c := range s.clients {
			if iv, ok := c.Get(k); !ok || !iv.Valid(v) {
				stale++
			}
		}
	}
	out.fail(e, mismatch, "host's final values differ from the schedule's")
	out.fail(e, stale, "validity after quiesce: a cached interval does not contain the final value")

	// Staleness: replay the paced schedule against each connection's log.
	stal := newSliced(t0, pacedNS, 1<<12)
	grace := int64(validityGrace) + int64(rep.FeedLateMax*1e3)
	var total staleCount
	for _, con := range s.cons {
		byKey := make([][]arrival, pfKeys)
		for _, a := range con.log {
			byKey[a.key] = append(byKey[a.key], a.arrival)
		}
		for k := range byKey {
			truth := make([]truthPoint, len(in.tl.due[k]))
			for i := range truth {
				truth[i] = truthPoint{due: in.tl.due[k][i], v: in.tl.val[k][i]}
			}
			total.add(replayStaleness(truth, byKey[k], 0, pacedNS, grace, stal, t0))
		}
		if e.traced {
			for _, a := range con.log {
				if a.at >= 0 {
					con.spans.record("watch.delivery", t0+a.at, t0+a.at, uint64(a.key))
				}
			}
			con.spans.flush()
		}
	}
	out.fail(e, total.overGrace, "validity: an interval stayed invalid for longer than the grace")
	// The replay assumes the client holds what the server thinks it holds
	// and that a refresh is delivered before its key's next update is due.
	// A merge-buffer union is valid but wider than the server's own record;
	// and when an update is applied late, or its refresh is delivered late
	// (either process can be stopped for a fifth of a second on a shared
	// box), by more than a key's update period, the scheduled truth can
	// wander back into an interval the server has already replaced. Either
	// way a refresh then arrives for an interval the replay holds valid.
	// Only an undisturbed window can be judged.
	keyPeriodUS := float64(pfBurstEvery) / 1e3 * pfKeys / pfBurst
	diverted := rep.WarmOverfl + rep.PacedOverfl
	if diverted == 0 && rep.FeedLateMax < keyPeriodUS/4 && stal.max() < keyPeriodUS/2 {
		out.fail(e, total.unaccounted, "a delivered refresh that no scheduled update accounts for")
	} else if total.unaccounted > 0 {
		e.notef("%d refreshes arrived for intervals the replay held valid; not judged: %d pushes were diverted to merge buffers, the feed ran up to %.0f us late and a delivery took up to %.0f us (a key is updated every %.0f us)",
			total.unaccounted, diverted, rep.FeedLateMax, stal.max(), keyPeriodUS)
	}

	pacedS := e.paced().Seconds()
	var vir, recv int64
	for j := range s.clients {
		vir += int64(edge[1][j].ValueRefreshes - edge[0][j].ValueRefreshes)
		recv += int64(edge[1][j].FramesReceived - edge[0][j].FramesReceived)
	}
	ops := float64(rep.PacedApplied)
	hostCPU := rep.PacedCPUUser + rep.PacedCPUSys - rep.PacedSpin
	satRate := sliceRates(rep.SatSlices, satNS/nSlices)
	out.set("setup_s", setupS)
	out.setN("timed.latency_p50_us", stal.p50(), stal.count())
	out.setN("timed.latency_p99_us", stal.tail(0.99), stal.count())
	out.setN("timed.ops_per_s", satRate, int(rep.SatApplied))
	out.set("refresh_cost_per_kop", paramCvr*float64(vir)/(ops/1000))
	out.set("timed.cpu_us_per_op", hostCPU*1e6/ops)
	out.set("rss_mb", rep.PeakRSSMB)
	out.set("server.cpu_util", hostCPU/pacedS)
	var satSeen int64
	for _, con := range s.cons {
		satSeen += con.satSeen
	}
	e.notef("paced: %d updates/s fed in bursts of %d every %v to %d full subscribers; %d refreshes delivered in %d frames, %d staleness samples",
		pfUpdatesPerS, pfBurst, pfBurstEvery, conns, vir, recv, stal.count())
	e.notef("saturated: %d Set calls, %d pushes returned, %d refreshes delivered, %d diverted to merge buffers, %d merged",
		rep.SatApplied, rep.SatPushes, satSeen, rep.SatOverfl, rep.SatMerges)
	e.notef("generator: feed woke late by p50/p99 %.0f/%.0f us; updates applied late by p99/max %.0f/%.0f us", rep.FeedLagP50, rep.FeedLagP99, rep.FeedLateP99, rep.FeedLateMax)

	out.set("gen.feed_lag_p99_us", rep.FeedLagP99)
	out.set("server.cpu_sys_share", ratio(rep.PacedCPUSys, rep.PacedCPUUser+rep.PacedCPUSys))
	out.set("server.pushes_per_set", ratio(float64(rep.PacedPushes), float64(rep.PacedApplied)))
	out.set("server.push_overflows_per_s", float64(rep.PacedOverfl)/pacedS)
	out.set("server.push_merges_per_s", float64(rep.PacedMerges)/pacedS)
	out.set("server.flush_batch_mean", ratio(float64(vir), float64(recv)))
	out.set("client.refreshes_per_frame", ratio(float64(vir), float64(recv)))
	out.set("watch.coalesced_per_s", float64(coalesced[1]-coalesced[0])/pacedS)
	out.set("trace.overhead_ratio", overheadRatio(rep.SatSlices, e.traced))
	e.notef("saturated phase: %.0f overflows/s, %.0f merges/s", float64(rep.SatOverfl)/e.sat().Seconds(), float64(rep.SatMerges)/e.sat().Seconds())
	if e.traced {
		sets := append([]float64(nil), rep.SetSpansUS...)
		for i, d := range rep.SetSpansUS {
			e.tr.add([]span{{Name: "server.set", Start: rep.SetSpanAt[i], End: rep.SetSpanAt[i] + int64(d*1e3), ID: e.tr.id(), Parent: wl}})
		}
		sort.Float64s(sets)
		out.setN("server.set_p50_us", percentile(sets, 0.5), len(sets))
		out.setN("server.set_p99_us", percentile(sets, 0.99), len(sets))
		replayPushFanout(e, out, in, conns, replayMix{
			pushBatch:   ratio(float64(vir), float64(recv)),
			pushesPerOp: ratio(float64(rep.SatPushes), float64(rep.SatApplied)),
			meanOpNS:    1e9 / satRate,
		})
	}
	return out, nil
}
