// Command apcache-server hosts numeric source values over TCP, feeding them
// with synthetic updates (random walks or a recorded trace) and serving
// approximate-cache clients with adaptively sized interval approximations.
//
// Usage:
//
//	apcache-server -addr :7070 -keys 50                # random walks
//	apcache-server -addr :7070 -trace trace.csv        # trace playback
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
	"apcache/internal/trace"
	"apcache/internal/wal"
	"apcache/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		keys      = flag.Int("keys", 50, "number of source values (random-walk mode)")
		traceFile = flag.String("trace", "", "CSV trace to play back instead of random walks")
		stepLo    = flag.Float64("steplo", 0.5, "random walk minimum step")
		stepHi    = flag.Float64("stephi", 1.5, "random walk maximum step")
		period    = flag.Duration("period", time.Second, "update period")
		cvr       = flag.Float64("cvr", 1, "value-initiated refresh cost")
		cqr       = flag.Float64("cqr", 2, "query-initiated refresh cost")
		alpha     = flag.Float64("alpha", 1, "adaptivity parameter")
		lambda0   = flag.Float64("lambda0", 0, "lower width threshold")
		width     = flag.Float64("width", 10, "initial interval width")
		seed      = flag.Int64("seed", 1, "random seed")
		shards    = flag.Int("shards", 0, "lock shards for the key space (0 = GOMAXPROCS-scaled, rounded to a power of two)")
		flush     = flag.Duration("maxflush", 2*time.Millisecond, "cap on the adaptive per-connection push-coalescing window (0 = always flush immediately)")
		connMode  = flag.String("connmode", "", "connection core: 'goroutine' (default; a read goroutine per connection) or 'poller' (event-driven, shared read loops); both start a drainer goroutine per connection with traffic in flight")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-drain bound on SIGTERM/interrupt: flush queued pushes before closing connections (0 = close immediately)")
		walDir    = flag.String("wal", "", "write-ahead log directory: journal values and checkpoint learned widths, recover them on restart (empty = not durable)")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: 'always' (every write waits for fsync), 'interval' (group-commit window), or 'none' (OS decides)")
	)
	flag.Parse()

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

	var updates []workload.UpdateSource
	rng := rand.New(rand.NewSource(*seed))
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatalf("apcache-server: %v", err)
		}
		tr, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("apcache-server: %v", err)
		}
		for h := 0; h < tr.Hosts(); h++ {
			updates = append(updates, workload.NewPlayback(tr.Host(h)))
		}
	} else {
		for k := 0; k < *keys; k++ {
			updates = append(updates, workload.NewRandomWalk(0, *stepLo, *stepHi, rng))
		}
	}
	recovered := 0
	for k, u := range updates {
		// A durable server recovered journaled keys already; seed only the
		// ones the journal did not carry, so a restart resumes the learned
		// state instead of resetting the walks.
		if _, ok := srv.Value(k); ok {
			recovered++
			continue
		}
		srv.SetInitial(k, u.Value())
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("apcache-server: %v", err)
	}
	if *walDir != "" {
		log.Printf("write-ahead log at %s (fsync=%s), %d keys recovered", *walDir, fsyncPolicy, recovered)
	}
	log.Printf("serving %d keys on %s (%s connection core, update period %v)", len(updates), bound, srv.ConnMode(), *period)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*period)
	defer ticker.Stop()
	var pushes, ticks int
	for {
		select {
		case <-ticker.C:
			ticks++
			for k, u := range updates {
				pushes += srv.Set(k, u.Step())
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
				ticks*len(updates), pushes, st.PushOverflows, st.PushMerges, live, st.Mutes, st.MutesRefused, st.QueryUpdates, st.QueryObserves, st.RefreshCost)
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
