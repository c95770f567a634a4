// Command apcache-client connects to an apcache-server, subscribes to its
// keys, and runs the paper's bounded-aggregate query workload against the
// local approximate cache, reporting refresh counts and effective cost.
//
// Usage:
//
//	apcache-client -addr 127.0.0.1:7070 -keys 50 -tq 1s -davg 100 -queries 100
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"math/rand"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/client"
	"apcache/internal/query"
	"apcache/internal/watch"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server address")
		keys     = flag.Int("keys", 50, "number of keys hosted by the server")
		perQuery = flag.Int("perquery", 10, "keys touched per query")
		cacheSz  = flag.Int("cache", 0, "cache capacity (0 = all keys)")
		tq       = flag.Duration("tq", time.Second, "query period")
		davg     = flag.Float64("davg", 100, "average precision constraint")
		sigma    = flag.Float64("sigma", 1, "precision constraint variation in [0,1]")
		queries  = flag.Int("queries", 100, "number of queries to run (0 = forever)")
		useMax   = flag.Bool("max", false, "run MAX queries instead of SUM")
		cvr      = flag.Float64("cvr", 1, "value-initiated refresh cost (for reporting)")
		cqr      = flag.Float64("cqr", 2, "query-initiated refresh cost (for reporting)")
		seed     = flag.Int64("seed", 1, "random seed")
		timeout  = flag.Duration("timeout", 0, "per-request timeout (0 = default 10s)")
		qlimit   = flag.Duration("qdeadline", 0, "per-query context deadline (0 = client default timeout only)")
		reconn   = flag.Bool("reconnect", false, "survive server restarts: redial with backoff and replay the held and watched keys")
		watchQ   = flag.Bool("watch", false, "register one standing continuous query over -perquery keys with delta -davg (SUM, or MAX with -max) and stream its answers instead of running the poll workload")
	)
	flag.Parse()

	// -watch clamps -perquery to -keys; the poll workload needs them valid.
	if !*watchQ && (*keys <= 0 || *perQuery <= 0 || *perQuery > *keys || !(*davg >= 0) || !(*sigma >= 0 && *sigma <= 1)) {
		log.Fatalf("apcache-client: want -keys > 0, 1 <= -perquery <= -keys, -davg >= 0 and 0 <= -sigma <= 1, got %d, %d, %g and %g", *keys, *perQuery, *davg, *sigma)
	}
	size := *cacheSz
	if size <= 0 {
		size = *keys
	}
	c, err := client.DialConfig(*addr, client.Config{
		CacheSize: size,
		Timeout:   *timeout,
		Reconnect: client.ReconnectPolicy{Enabled: *reconn},
	})
	if err != nil {
		log.Fatalf("apcache-client: %v", err)
	}
	defer c.Close()
	all := make([]int, *keys)
	for k := range all {
		all[k] = k
	}
	if err := c.SubscribeMulti(all); err != nil {
		log.Fatalf("apcache-client: subscribe: %v", err)
	}
	log.Printf("subscribed to %d keys; querying every %v", *keys, *tq)

	kind := query.Sum
	if *useMax {
		kind = query.Max
	}
	if *watchQ {
		runWatchQuery(c, kind, *davg, min(*perQuery, *keys), *queries, *cvr, *cqr)
		return
	}
	rng := rand.New(rand.NewSource(*seed))

	start := time.Now()
	ticker := time.NewTicker(*tq)
	defer ticker.Stop()
	for n := 0; *queries == 0 || n < *queries; n++ {
		<-ticker.C
		q := nextQuery(rng, kind, *keys, *perQuery, *davg, *sigma)
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *qlimit > 0 {
			ctx, cancel = context.WithTimeout(ctx, *qlimit)
		}
		ans, err := c.QueryCtx(ctx, q)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, aperrs.ErrTimeout) {
				log.Printf("apcache-client: query #%d timed out: %v", n+1, err)
				continue
			}
			if *reconn && errors.Is(err, aperrs.ErrConnLost) {
				// The redial loop owns recovery; queries resume once the
				// replayed subscriptions land.
				log.Printf("apcache-client: query #%d lost the connection (reconnecting): %v", n+1, err)
				continue
			}
			log.Fatalf("apcache-client: query: %v", err)
		}
		if (n+1)%10 == 0 {
			st := c.Stats()
			elapsed := time.Since(start).Seconds()
			cost := float64(st.ValueRefreshes)*(*cvr) + float64(st.QueryRefreshes)*(*cqr)
			log.Printf("q#%d %s(%d keys) delta=%.3g -> %v (fetched %d); VIR=%d QIR=%d cost-rate=%.4g/s",
				n+1, q.Kind, len(q.Keys), q.Delta, ans.Result, len(ans.Refreshed),
				st.ValueRefreshes, st.QueryRefreshes, cost/elapsed)
		}
	}
	st := c.Stats()
	cost := float64(st.ValueRefreshes)*(*cvr) + float64(st.QueryRefreshes)*(*cqr)
	hitRate := 0.0
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		hitRate = float64(st.Cache.Hits) / float64(lookups)
	}
	log.Printf("done: VIR=%d QIR=%d total-cost=%.4g hit-rate=%.2f evicts=%d rejects=%d frames-sent=%d frames-recv=%d mutes-sent=%d pushes-ignored=%d rtt=%v reconnects=%d",
		st.ValueRefreshes, st.QueryRefreshes, cost, hitRate, st.Cache.Evicts, st.Cache.Rejects,
		st.FramesSent, st.FramesReceived, st.MutesSent, st.PushesIgnored, st.SmoothedRTT, st.Reconnects)
}

// nextQuery draws one query of the paper's load (Section 4.1): perQuery
// distinct keys out of keys, chosen uniformly, and a precision constraint
// uniform on [davg*(1-sigma), davg*(1+sigma)].
func nextQuery(rng *rand.Rand, kind query.AggKind, keys, perQuery int, davg, sigma float64) query.Query {
	idx := make([]int, keys)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < perQuery; i++ {
		j := i + rng.Intn(keys-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	q := query.Query{Kind: kind, Keys: idx[:perQuery]}
	if davg > 0 {
		lo, hi := davg*(1-sigma), davg*(1+sigma)
		q.Delta = lo + rng.Float64()*(hi-lo)
	}
	return q
}

// runWatchQuery registers one standing bounded aggregate over the first n
// keys and streams its answers: the server maintains the aggregate
// incrementally and emits an update — a fresh delta-wide envelope — only
// when the aggregate leaves the one the client holds, so the client does no
// per-update query work at all.
func runWatchQuery(c *client.Client, kind query.AggKind, delta float64, n, limit int, cvr, cqr float64) {
	ks := make([]int, n)
	for k := range ks {
		ks[k] = k
	}
	w, err := c.WatchQuery(kind, delta, ks...)
	if err != nil {
		log.Fatalf("apcache-client: watch query: %v", err)
	}
	defer w.Close()
	log.Printf("standing %s(%d keys) delta=%.3g registered; streaming answers", kind, n, delta)
	start := time.Now()
	seen := 0
	for u := range w.Updates() {
		switch u.Event {
		case watch.EventDisconnected:
			log.Printf("apcache-client: connection lost; awaiting replay")
			continue
		case watch.EventReconnected:
			log.Printf("apcache-client: reconnected; standing query replayed")
			continue
		}
		seen++
		if seen%10 == 0 || seen == 1 {
			st := c.Stats()
			cost := float64(st.ValueRefreshes)*cvr + float64(st.QueryRefreshes)*cqr
			log.Printf("u#%d %s -> [%.6g, %.6g] center=%.6g; frames-recv=%d cost-rate=%.4g/s",
				seen, kind, u.Interval.Lo, u.Interval.Hi, u.Value,
				st.FramesReceived, cost/time.Since(start).Seconds())
		}
		if limit != 0 && seen >= limit {
			break
		}
	}
	if err := w.Err(); err != nil && seen == 0 {
		log.Fatalf("apcache-client: watch query stream: %v", err)
	}
	st := c.Stats()
	log.Printf("done: %d answers, frames-sent=%d frames-recv=%d reconnects=%d",
		seen, st.FramesSent, st.FramesReceived, st.Reconnects)
}
