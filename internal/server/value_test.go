package server

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/query"
)

// TestValueSeesUpdates checks Value reads what Set wrote, not just what
// SetInitial seeded.
func TestValueSeesUpdates(t *testing.T) {
	s := New(testConfig())
	for k := 0; k < 64; k++ {
		s.SetInitial(k, float64(k))
	}
	for k := 0; k < 64; k++ {
		s.Set(k, float64(k)*10)
	}
	for k := 0; k < 64; k++ {
		if v, ok := s.Value(k); !ok || v != float64(k)*10 {
			t.Fatalf("Value(%d) = %g, %v; want %g", k, v, ok, float64(k)*10)
		}
	}
}

// TestRefreshCostMeasured drives query-initiated reads through the wire path
// and checks the server distills them into a nonzero cost estimate.
func TestRefreshCostMeasured(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(1, 10)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().RefreshCost; got != 0 {
		t.Fatalf("RefreshCost before any read = %v, want 0", got)
	}

	conn := rawDial(t, addr.String())
	hello(t, conn)
	for i := 0; i < 4; i++ {
		if err := netproto.Write(conn, readOne(uint64(i+1), 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil {
			t.Fatal(err)
		}
	}
	cost := s.Stats().RefreshCost
	if cost <= 0 {
		t.Fatalf("RefreshCost after reads = %v, want > 0", cost)
	}
	if cost > time.Second {
		t.Fatalf("RefreshCost absurdly large: %v", cost)
	}
}

// TestHostStateUnderLoad hammers the readers of a shard's state — Stats,
// Value — from two goroutines while Sets, reads, mutes and a
// standing query run on every shard. The state lives once, under the shard
// lock, so under -race this is the check that every writer and every reader
// holds it; the assertions are what a per-shard-consistent snapshot promises,
// and at quiescence Stats must be exactly what the sources count.
func TestHostStateUnderLoad(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.Shards = 4
		s, addr := listenMode(t, cfg, mode)
		const keys = 64
		for k := 0; k < keys; k++ {
			s.SetInitial(k, float64(k))
		}
		conn := rawDial(t, addr)
		hello(t, conn)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var last Stats
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := s.Stats()
					if st.Mutes < last.Mutes || st.MutesRefused < last.MutesRefused {
						t.Errorf("mute counters went backwards: %d/%d after %d/%d", st.Mutes, st.MutesRefused, last.Mutes, last.MutesRefused)
						return
					}
					hosted := 0
					for i, sh := range st.PerShard {
						hosted += sh.Keys
						// Two possible subscribers per key: the connection and the query.
						if sh.Subscriptions > 2*sh.Keys {
							t.Errorf("shard %d: %d subscriptions for %d keys", i, sh.Subscriptions, sh.Keys)
							return
						}
					}
					if hosted != keys {
						t.Errorf("shards host %d keys, want %d", hosted, keys)
						return
					}
					if st.RefreshCost < 0 {
						t.Errorf("negative RefreshCost")
						return
					}
					last = st
					if _, ok := s.Value(g); !ok {
						t.Errorf("Value(%d) lost the key", g)
						return
					}
					runtime.Gosched()
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mostly inside the held intervals, now and then far outside:
				// pushes flow without burying the replies the client awaits.
				v := float64(i % 7)
				if i%16 == 0 {
					v = float64(i) * 1e3
				}
				s.Set(i%keys, v)
				runtime.Gosched() // one core must still reach the connection's goroutines
			}
		}()

		// await skips pushes until the reply to request id arrives.
		await := func(id uint64) {
			t.Helper()
			for {
				msg, err := readMsg(conn)
				if err != nil {
					t.Fatalf("awaiting reply %d: %v", id, err)
				}
				switch m := msg.(type) {
				case *netproto.RefreshBatch:
					if m.ID == id {
						return
					}
				case *netproto.QueryUpdate:
					if m.ID == id {
						return
					}
				case *netproto.Error2:
					t.Fatalf("awaiting reply %d: %+v", id, m)
				}
			}
		}
		member := make([]int64, 16) // 16 keys of 64 over 4 shards: a member on every shard
		for k := range member {
			member[k] = int64(k)
		}
		if err := netproto.Write(conn, &netproto.RegisterQuery{ID: 1, QID: 1, Kind: query.Sum, Delta: 1e4, Keys: member}); err != nil {
			t.Fatal(err)
		}
		await(1)
		// Each request reads eight keys and announces the previous request's
		// eight as not held: with Seen at the maximum every announcement is
		// honoured, with Seen 0 every one is refused (the reply that carried
		// the key is numbered above it).
		announced := 0
		var prev []int64
		for i := 0; i < 100; i++ {
			read := make([]int64, 8)
			for j := range read {
				read[j] = int64((i*8 + j) % keys)
			}
			req := &netproto.ReadMulti{ID: uint64(i + 2), Keys: read, Mute: prev}
			if i%2 == 0 {
				req.Seen = math.MaxUint64
			}
			if err := netproto.Write(conn, req); err != nil {
				t.Fatal(err)
			}
			await(req.ID)
			announced += len(prev)
			prev = read
		}
		close(stop)
		wg.Wait()

		st := s.Stats()
		if st.Mutes == 0 || st.MutesRefused == 0 || st.Mutes+st.MutesRefused != announced {
			t.Errorf("%d mutes honoured + %d refused, want both kinds and %d in all", st.Mutes, st.MutesRefused, announced)
		}
		if st.Queries != 1 || st.RefreshCost <= 0 {
			t.Errorf("quiescent stats %+v: want 1 query and a measured refresh cost", st)
		}
		for i, sh := range s.eng.Shards() {
			sh.Mu.Lock()
			want := ShardStats{Keys: sh.Src.Keys(), Subscriptions: sh.Src.Subscriptions()}
			sh.Mu.Unlock()
			if st.PerShard[i] != want || want.Subscriptions == 0 {
				t.Errorf("shard %d: Stats %+v, its source %+v", i, st.PerShard[i], want)
			}
		}
	})
}
