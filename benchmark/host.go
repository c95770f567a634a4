package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"apcache/internal/core"
	"apcache/internal/server"
	"apcache/internal/wal"
)

// hostMain is the host child: a thin main over the public calls
// cmd/apcache-server makes, fed from an input file instead of an internal
// ticker. It talks to the parent in lines: READY on stdout once listening,
// then WARM / START <t0> / VALUES / QUIT on stdin, each answered by one
// line. Closing stdin is QUIT, so a host never outlives its parent.
func hostMain(cfgPath string) int {
	var cfg hostConfig
	if err := readJSON(cfgPath, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark host:", err)
		return 1
	}
	in, err := readInputs(cfg.InputFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark host:", err)
		return 1
	}
	srv, err := server.Open(server.Config{
		Params: core.Params{
			Cvr: paramCvr, Cqr: paramCqr, Alpha: cfg.Alpha,
			Lambda0: 0, Lambda1: math.Inf(1),
		},
		InitialWidth:     cfg.InitialWidth,
		Seed:             serverSeed,
		FlushInterval:    time.Duration(cfg.FlushInterval),
		ConnMode:         cfg.ConnMode,
		WALDir:           cfg.WALDir,
		WALFsync:         wal.FsyncInterval,
		WALFsyncInterval: time.Duration(cfg.FsyncWindow),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark host:", err)
		return 1
	}
	h := &host{cfg: cfg, in: in, srv: srv}
	for k, v := range in.Initial {
		// A durable host recovered journaled keys already; seed the rest.
		if _, ok := srv.Value(k); ok {
			h.rep.Recovered++
			continue
		}
		srv.SetInitial(k, v)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark host:", err)
		return 1
	}
	h.rep.ConnMode = srv.ConnMode()
	h.rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	fmt.Printf("READY %s %d\n", addr, h.rep.Recovered)

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "WARM":
			for i, u := range in.Warm {
				if cfg.WarmChunk > 0 && i > 0 && i%cfg.WarmChunk == 0 {
					time.Sleep(time.Duration(cfg.WarmGapNS))
				}
				srv.Set(int(u.Key), u.Value)
			}
			h.rep.WarmApplied = len(in.Warm)
			fmt.Println("WARMED", len(in.Warm))
		case "START":
			t0, err := strconv.ParseInt(f[len(f)-1], 10, 64)
			if err != nil || len(f) != 2 {
				fmt.Fprintln(os.Stderr, "benchmark host: bad START")
				return 1
			}
			h.run(t0)
			if err := h.writeReport(); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark host:", err)
				return 1
			}
			fmt.Println("DONE")
		case "VALUES":
			if err := h.writeReport(); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark host:", err)
				return 1
			}
			fmt.Println("DONE")
		case "QUIT":
			return h.shutdown()
		}
	}
	return h.shutdown()
}

type host struct {
	cfg hostConfig
	in  *hostInputs
	srv *server.Server
	rep hostReport
	pc  pacer
}

func (h *host) shutdown() int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "benchmark host: shutdown:", err)
		return 1
	}
	return 0
}

// edge is what the host reads about itself at a window edge.
type edge struct {
	user, sys, spin  float64
	applied, pushes  int64
	overflow, merges int
}

func (h *host) edge(applied, pushes *atomic.Int64) edge {
	u, s := cpuSeconds()
	st := h.srv.Stats()
	return edge{
		user: u, sys: s, spin: h.pc.spinSeconds(),
		applied: applied.Load(), pushes: pushes.Load(),
		overflow: st.PushOverflows, merges: st.PushMerges,
	}
}

// run applies the feed open loop from t0, then the saturated cycle back to
// back, and fills the report.
func (h *host) run(t0 int64) {
	var applied, pushes atomic.Int64
	edges := make(chan [2]edge, 1) // one send, by the edge reader below
	go func() {
		time.Sleep(time.Until(time.Unix(0, t0)))
		a := h.edge(&applied, &pushes)
		time.Sleep(time.Until(time.Unix(0, t0+h.cfg.PacedNS)))
		edges <- [2]edge{a, h.edge(&applied, &pushes)}
	}()

	// Open-loop feed: every update is applied at its due time or as soon
	// after as the host can. Two kinds of lateness are kept apart. A tick
	// that starts late although the previous one had finished is the
	// generator's own fault (it woke late): that is the lag a run is
	// declared invalid on, taken over the paced window only. Everything
	// else — a Set that waits for a shard lock held by the journal's
	// compactor, a tick queued behind a slow one, the feed competing for
	// cores once the clients go closed loop — is the system under load: it
	// counts in staleness, and the validity checks allow for its maximum.
	//
	// A feeder that has fallen behind — the sandbox can stop a process for a
	// fifth of a second — catches up at no more than catchUp times its rate:
	// replaying the whole backlog back to back would be a different
	// workload (an update storm) from the one the schedule describes.
	const catchUp = 4
	var wake, late []float64
	lastDue, idleAt, tickAt := int64(-1), int64(0), int64(0)
	tick := int64(0)
	if n := len(h.in.Feed); n > 1 {
		tick = (h.in.Feed[n-1].Due - h.in.Feed[0].Due) / int64(n) * int64(tickSize(h.in.Feed))
	}
	for _, u := range h.in.Feed {
		if u.Due != lastDue {
			onTime := idleAt <= t0+u.Due
			h.pc.until(max(t0+u.Due, tickAt+tick/catchUp))
			tickAt = nowNS()
			if onTime && u.Due >= 0 && u.Due < h.cfg.PacedNS {
				wake = append(wake, float64(nowNS()-(t0+u.Due))/1e3)
			}
			lastDue = u.Due
		}
		pushes.Add(int64(h.srv.Set(int(u.Key), u.Value)))
		applied.Add(1)
		idleAt = nowNS()
		if u.Due >= 0 && u.Due < h.cfg.PacedNS {
			late = append(late, float64(idleAt-(t0+u.Due))/1e3)
		}
		h.rep.FeedLateMax = max(h.rep.FeedLateMax, float64(idleAt-(t0+u.Due))/1e3)
	}
	h.rep.FeedApplied = len(h.in.Feed)
	sort.Float64s(wake)
	sort.Float64s(late)
	h.rep.FeedLagP50 = percentile(wake, 0.5)
	h.rep.FeedLagP99 = percentile(wake, 0.99)
	h.rep.FeedLateP99 = percentile(late, 0.99)
	h.pc.until(t0 + h.cfg.FeedNS)

	e := <-edges
	h.rep.WarmOverfl = e[0].overflow
	h.rep.PacedApplied = int(e[1].applied - e[0].applied)
	h.rep.PacedPushes = int(e[1].pushes - e[0].pushes)
	h.rep.PacedCPUUser = e[1].user - e[0].user
	h.rep.PacedCPUSys = e[1].sys - e[0].sys
	h.rep.PacedSpin = e[1].spin - e[0].spin
	h.rep.PacedOverfl = e[1].overflow - e[0].overflow
	h.rep.PacedMerges = e[1].merges - e[0].merges

	if h.cfg.SatNS > 0 && len(h.in.Sat) > 0 {
		h.saturate(t0 + h.cfg.FeedNS)
	}
	if h.cfg.WALDir != "" {
		// Two group-commit windows: everything applied is on disk when the
		// values below are reported, so a kill -9 after DONE must lose none.
		time.Sleep(2*time.Duration(h.cfg.FsyncWindow) + 20*time.Millisecond)
	}
}

// saturate calls Set back to back for SatNS, cycling through the saturated
// block. The clock is read once every 64 calls; in the odd slices of a
// traced run one call in 64 is timed as a span.
func (h *host) saturate(start int64) {
	clk := phaseClock{start: start, length: h.cfg.SatNS / nSlices, traced: h.cfg.Traced}
	counts := make([]int64, nSlices)
	before := h.srv.Stats()
	var sets, pushes int64
	i := 0
	for {
		now := nowNS()
		sl := clk.slice(now)
		if sl < 0 && now >= start {
			break
		}
		tracing := sl >= 0 && clk.tracing(sl)
		for n := 0; n < 64; n++ {
			u := h.in.Sat[i]
			if i++; i == len(h.in.Sat) {
				i = 0
			}
			if tracing && n == 0 {
				t := nowNS()
				pushes += int64(h.srv.Set(int(u.Key), u.Value))
				h.rep.SetSpansUS = append(h.rep.SetSpansUS, float64(nowNS()-t)/1e3)
				h.rep.SetSpanAt = append(h.rep.SetSpanAt, t)
				continue
			}
			pushes += int64(h.srv.Set(int(u.Key), u.Value))
		}
		sets += 64
		if sl >= 0 {
			counts[sl] += 64
		}
	}
	after := h.srv.Stats()
	h.rep.SatStart = start
	h.rep.SatApplied = sets
	h.rep.SatPushes = pushes
	h.rep.SatSlices = counts
	h.rep.SatOverfl = after.PushOverflows - before.PushOverflows
	h.rep.SatMerges = after.PushMerges - before.PushMerges
}

func (h *host) writeReport() error {
	st := h.srv.Stats()
	h.rep.RefreshCost = float64(st.RefreshCost) / 1e3
	h.rep.Queries = st.Queries
	h.rep.PeakRSSMB = peakRSSMB()
	h.rep.Final = make([]float64, len(h.in.Initial))
	for k := range h.rep.Final {
		h.rep.Final[k], _ = h.srv.Value(k)
	}
	if err := writeJSON(h.cfg.ReportFile, &h.rep); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// tickSize is the number of updates due together at the start of the feed.
func tickSize(feed []update) int {
	n := 0
	for n < len(feed) && feed[n].Due == feed[0].Due {
		n++
	}
	return n
}
