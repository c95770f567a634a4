// Command apcache-server hosts numeric source values over TCP and serves
// approximate-cache clients with adaptively sized interval approximations.
// It feeds each key with the paper's Section 4.2 random walk: every period
// the value moves up or down, with equal odds, by a step drawn uniformly
// between the -steplo and -stephi flags. With -wal the server is durable: a
// restart recovers the hosted values and learned widths, and each walk
// resumes where it stopped.
//
// Usage:
//
//	apcache-server -addr :7070 -keys 50
//	apcache-server -addr :7070 -keys 50 -wal /var/lib/apcache
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"apcache/internal/core"
	"apcache/internal/server"
	"apcache/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		keys     = flag.Int("keys", 50, "number of source values")
		stepLo   = flag.Float64("steplo", 0.5, "random walk minimum step")
		stepHi   = flag.Float64("stephi", 1.5, "random walk maximum step")
		period   = flag.Duration("period", time.Second, "update period")
		cvr      = flag.Float64("cvr", 1, "value-initiated refresh cost")
		cqr      = flag.Float64("cqr", 2, "query-initiated refresh cost")
		alpha    = flag.Float64("alpha", 1, "adaptivity parameter")
		lambda0  = flag.Float64("lambda0", 0, "lower width threshold")
		width    = flag.Float64("width", 10, "initial interval width")
		seed     = flag.Int64("seed", 1, "random seed")
		shards   = flag.Int("shards", 0, "lock shards for the key space (0 = GOMAXPROCS-scaled, rounded to a power of two)")
		flush    = flag.Duration("maxflush", 2*time.Millisecond, "cap on the adaptive per-connection push-coalescing window (0 = always flush immediately)")
		connMode = flag.String("connmode", "", "connection core: 'goroutine' (default; a read goroutine per connection) or 'poller' (event-driven, shared read loops); both start a drainer goroutine per connection with traffic in flight")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-drain bound on SIGTERM/interrupt: flush queued pushes before closing connections (0 = close immediately)")
		walDir   = flag.String("wal", "", "write-ahead log directory: journal values and checkpoint learned widths, recover them on restart (empty = not durable)")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy: 'always' (every write waits for fsync), 'interval' (group-commit window), or 'none' (OS decides)")
	)
	flag.Parse()

	if *keys < 0 || !(*stepLo >= 0 && *stepHi >= *stepLo) {
		log.Fatalf("apcache-server: want -keys >= 0 and 0 <= -steplo <= -stephi, got %d keys and steps [%g, %g]", *keys, *stepLo, *stepHi)
	}
	fsyncPolicy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		log.Fatalf("apcache-server: %v", err)
	}
	srv, err := server.Open(server.Config{
		Params: core.Params{
			Cvr: *cvr, Cqr: *cqr, Alpha: *alpha,
			Lambda0: *lambda0, Lambda1: math.Inf(1),
		},
		InitialWidth:  *width,
		Seed:          *seed,
		Shards:        *shards,
		FlushInterval: *flush,
		ConnMode:      *connMode,
		WALDir:        *walDir,
		WALFsync:      fsyncPolicy,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("apcache-server: %v", err)
	}

	walks, recovered := seedWalks(srv, *keys)
	rng := rand.New(rand.NewSource(*seed))

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("apcache-server: %v", err)
	}
	if *walDir != "" {
		log.Printf("write-ahead log at %s (fsync=%s), %d keys recovered", *walDir, fsyncPolicy, recovered)
	}
	log.Printf("serving %d keys on %s (%s connection core, update period %v)", len(walks), bound, srv.ConnMode(), *period)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*period)
	defer ticker.Stop()
	var pushes, ticks int
	for {
		select {
		case <-ticker.C:
			ticks++
			for k := range walks {
				step := *stepLo + rng.Float64()*(*stepHi-*stepLo)
				if rng.Float64() >= 0.5 {
					step = -step
				}
				walks[k] += step
				pushes += srv.Set(k, walks[k])
			}
			if ticks%60 == 0 {
				log.Printf("t=%ds clients=%d refreshes-pushed=%d", ticks, srv.Clients(), pushes)
			}
		case <-stop:
			fmt.Println()
			st := srv.Stats()
			live := 0
			for _, sh := range st.PerShard {
				live += sh.Subscriptions
			}
			log.Printf("shutting down: %d updates applied, %d refreshes pushed (%d parked on congestion, %d merged), %d subscriptions live (%d mutes honoured, %d refused), %d standing-query answers pushed for %d key refreshes observed, measured refresh cost %v",
				ticks*len(walks), pushes, st.PushOverflows, st.PushMerges, live, st.Mutes, st.MutesRefused, st.QueryUpdates, st.QueryObserves, st.RefreshCost)
			if *drain > 0 {
				ctx, cancel := context.WithTimeout(context.Background(), *drain)
				if err := srv.Shutdown(ctx); err != nil {
					log.Printf("drain incomplete after %v: %v", *drain, err)
				}
				cancel()
			} else {
				srv.Close()
			}
			return
		}
	}
}

// seedWalks returns the starting point of each key's walk: the value the
// server holds for it, or 0 for a key it does not hold yet, which it seeds.
// A durable server recovered its journaled keys already, so a restart
// resumes both the learned widths and the walks instead of driving every
// recovered value back towards 0.
func seedWalks(srv *server.Server, keys int) (walks []float64, recovered int) {
	walks = make([]float64, keys)
	for k := range walks {
		if v, ok := srv.Value(k); ok {
			walks[k] = v
			recovered++
			continue
		}
		srv.SetInitial(k, 0)
	}
	return walks, recovered
}
