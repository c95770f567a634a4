package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"apcache/internal/netproto"
	"apcache/internal/query"
)

// nextReply reads frames off a raw connection up to the next reply, counting
// as the client does: a RefreshBatch or QueryUpdate with ID 0 is a push, every
// other frame is one reply. It returns the reply and how many pushes came
// before it.
func nextReply(t *testing.T, conn net.Conn) (reply netproto.Message, pushes int) {
	t.Helper()
	for {
		got, err := netproto.ReadMsg(conn)
		if err != nil {
			t.Fatalf("waiting for a reply: %v", err)
		}
		id := uint64(1) // Pong, HelloAck, Error2: always a reply
		switch r := got.(type) {
		case *netproto.RefreshBatch:
			id = r.ID
		case *netproto.QueryUpdate:
			id = r.ID
		}
		if id != 0 {
			return got, pushes
		}
		pushes++
	}
}

// TestMuteJudgedAgainstReplyClock drives the server's half of the eviction
// protocol over a raw connection, under both drivers: replies are numbered
// from the HelloAck, a read stamps its key with the number of the reply
// carrying it, and a mute is honoured only at or above that number. An
// honoured mute drops the pair: the key pushes nothing, and its next read
// starts it over at the configured initial width.
func TestMuteJudgedAgainstReplyClock(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		cfg := testConfig()
		cfg.ConnMode = mode
		s := New(cfg)
		for k := 0; k < 4; k++ {
			s.SetInitial(k, 100)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		conn := rawDial(t, addr.String())
		hello(t, conn) // reply 1
		roundTrip := func(m netproto.Message) netproto.Message {
			t.Helper()
			if err := netproto.Write(conn, m); err != nil {
				t.Fatal(err)
			}
			got, _ := nextReply(t, conn) // skipping the pushes the Sets below cause
			return got
		}
		counts := func() (subs, mutes, refused int) {
			st := s.Stats()
			for _, sh := range st.PerShard {
				subs += sh.Subscriptions
			}
			return subs, st.Mutes, st.MutesRefused
		}
		expect := func(what string, subs, mutes, refused int) {
			t.Helper()
			// A Ping's reply proves the fire-and-forget frame before it was served.
			roundTrip(&netproto.Ping{ID: 99})
			if a, b, c := counts(); a != subs || b != mutes || c != refused {
				t.Fatalf("%s: subscriptions=%d mutes=%d refused=%d, want %d %d %d", what, a, b, c, subs, mutes, refused)
			}
		}
		roundTrip(&netproto.SubscribeMulti{ID: 1, Keys: []int64{0, 1, 2}}) // reply 2
		roundTrip(readOne(2, 0))                                           // reply 3 carries key 0

		netproto.Write(conn, &netproto.Mute{Seen: 2, Keys: []int64{0, 1, 3, 77}})
		// 0: its reply 3 is unread at Seen 2. 1: fine. 3 and 77: never subscribed.
		expect("mute below the mark", 2, 1, 3) // the Ping was reply 4
		if n := s.Set(1, 1e6); n != 0 {
			t.Errorf("dropped key 1 pushed %d refreshes", n)
		}
		if n := s.Set(0, 1e6); n != 1 {
			t.Errorf("key 0, whose mute was refused, pushed %d refreshes, want 1", n)
		}
		for key, want := range map[int]bool{0: true, 1: false} {
			sh := s.eng.For(key)
			sh.Mu.Lock()
			_, ok := sh.Src.IntervalFor(1, key)
			sh.Mu.Unlock()
			if ok != want {
				t.Errorf("key %d has a pair: %v, want %v", key, ok, want)
			}
		}

		// The tail of a ReadMulti is served before its reads: key 2 dropped by
		// the tail and read by the same frame ends up subscribed.
		rb := roundTrip(&netproto.ReadMulti{ID: 3, Keys: []int64{2}, Seen: 4, Mute: []int64{0, 2}}) // reply 5
		if b, ok := rb.(*netproto.RefreshBatch); !ok || len(b.Items) != 1 || b.Items[0].Key != 2 {
			t.Fatalf("ReadMulti reply %#v", rb)
		}
		expect("tail then reads", 1, 3, 3) // 0 dropped; 2 dropped, then subscribed again by its read
		if n := s.Set(2, 1e6); n != 1 {
			t.Errorf("key 2, read after its mute, pushed %d refreshes, want 1", n)
		}
		// A read brings a dropped key back as a fresh pair: InitialWidth, halved
		// by the read itself. Had the pair survived the escape above, which
		// doubled it, the read would have shipped 20/2.
		if r := oneItem(t, roundTrip(readOne(4, 1)), 4); r.Hi-r.Lo != cfg.InitialWidth/2 || r.Lo > 1e6 || r.Hi < 1e6 {
			t.Errorf("re-read of dropped key 1 shipped %#v, want width %g around 1e6", r, cfg.InitialWidth/2)
		}
		expect("read of a dropped key", 2, 3, 3)
		if n := s.Set(1, -1e6); n != 1 {
			t.Errorf("key 1, read again, pushed %d refreshes, want 1", n)
		}

		// Teardown takes the connection's subscriptions with it.
		conn.Close()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if subs, _, _ := counts(); subs == 0 && s.Clients() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscription gauge did not return to zero after the disconnect")
			}
		}
	})
}

// TestRefusedMissAllocBudget gates the request path in the regime of a client
// whose cache refuses most misses, under both connection cores: a cycle is a
// one-key ReadMulti whose Mute tail drops the previous cycle's key, so every
// read installs a pair and every tail drops one. Frames are encoded up front
// and replies decoded in place, so the test side allocates nothing, and a
// warmed-up cycle must cost no more allocations than a Ping round trip on the
// same connection (the Pong itself is one). Building a controller and a
// subscription per read, or a closure per request, fails it.
func TestRefusedMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	forEachConnMode(t, func(t *testing.T, mode string) {
		s, addr := listenMode(t, testConfig(), mode)
		const keys, warm, rounds = 64, 200, 2000
		for k := 0; k < keys; k++ {
			s.SetInitial(k, 100)
		}
		conn := rawDial(t, addr)
		hello(t, conn) // reply 1
		const pingIDs = 1 << 32
		var cycles, pings [][]byte
		for i := 0; i < warm+rounds; i++ {
			// Cycle i is preceded by the HelloAck and i replies, the last of
			// which carried the key its tail drops.
			m := &netproto.ReadMulti{ID: uint64(2 + i), Keys: []int64{int64(i % keys)}, Seen: uint64(1 + i)}
			if i > 0 {
				m.Mute = []int64{int64((i - 1) % keys)}
			}
			frame, err := netproto.AppendFrame(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			cycles = append(cycles, frame)
			frame, _ = netproto.AppendFrame(nil, &netproto.Ping{ID: pingIDs + uint64(i)})
			pings = append(pings, frame)
		}
		dec := netproto.NewStreamDecoder()
		buf := make([]byte, 4096)
		var wantID uint64
		replied := false
		emit := func(m netproto.Message) error {
			var id uint64 // stays 0 for anything but a one-item reply or a Pong
			switch r := m.(type) {
			case *netproto.RefreshBatch:
				if len(r.Items) == 1 {
					id = r.ID
				}
			case *netproto.Pong:
				id = r.ID
			}
			if id != wantID || replied {
				t.Fatalf("got %#v, want one reply with ID %d", m, wantID)
			}
			replied = true
			return nil
		}
		roundTrip := func(frame []byte) {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			for replied = false; !replied; {
				n, err := conn.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := dec.Feed(buf[:n], emit); err != nil {
					t.Fatal(err)
				}
			}
		}
		// perOp round-trips frames, whose replies carry IDs from firstID up,
		// and counts the allocations of all but the first warm.
		perOp := func(frames [][]byte, firstID uint64) float64 {
			var m0, m1 runtime.MemStats
			for i, f := range frames {
				if i == warm {
					runtime.ReadMemStats(&m0)
				}
				wantID = firstID + uint64(i)
				roundTrip(f)
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs-m0.Mallocs) / rounds
		}
		perCycle := perOp(cycles, 2)
		perPing := perOp(pings, pingIDs)
		t.Logf("%s: %.2f allocs per read+mute cycle, %.2f per ping round trip", mode, perCycle, perPing)
		if perCycle > perPing {
			t.Errorf("%s: %.2f allocs per read+mute cycle, more than a ping round trip's %.2f", mode, perCycle, perPing)
		}
		st := s.Stats()
		subs := 0
		for _, sh := range st.PerShard {
			subs += sh.Subscriptions
		}
		if st.Mutes != warm+rounds-1 || st.MutesRefused != 0 || subs != 1 {
			t.Errorf("%d mutes honoured, %d refused, %d subscriptions live; want %d, 0, 1", st.Mutes, st.MutesRefused, subs, warm+rounds-1)
		}
	})
}

// TestReplyClockCountsEveryReplyFrame judges the numbering both ends of rule
// R3 rely on, from the wire: every frame with a nonzero ID, and every Pong,
// HelloAck and Error2, is one reply, and nothing else is. A raw peer counts
// the frames it reads that way through one of each reply-producing request,
// with pushes (ID 0) interleaved; after each reply that carried a key, a mute
// sampled one reply short is refused and one sampled at the reply is
// honoured — which fails if the server numbered any frame differently.
func TestReplyClockCountsEveryReplyFrame(t *testing.T) {
	forEachConnMode(t, func(t *testing.T, mode string) {
		s, addr := listenMode(t, testConfig(), mode)
		for k := 0; k < 8; k++ {
			s.SetInitial(k, 100)
		}
		conn := rawDial(t, addr)
		hello(t, conn)
		n := uint64(1) // replies read so far; the HelloAck was the first
		pushes := 0
		call := func(m netproto.Message) netproto.Message {
			t.Helper()
			if err := netproto.Write(conn, m); err != nil {
				t.Fatal(err)
			}
			got, skipped := nextReply(t, conn)
			pushes += skipped
			n++
			return got
		}
		honoured, refused := 0, 0
		// judge: key rode reply n, the one just read.
		judge := func(what string, key int64) {
			t.Helper()
			at := n
			netproto.Write(conn, &netproto.Mute{Seen: at - 1, Keys: []int64{key}})
			netproto.Write(conn, &netproto.Mute{Seen: at, Keys: []int64{key}})
			call(&netproto.Ping{ID: 99}) // its Pong proves both mutes were served
			refused++
			honoured++
			if st := s.Stats(); st.Mutes != honoured || st.MutesRefused != refused {
				t.Fatalf("%s as reply %d: %d mutes honoured, %d refused, want %d and %d", what, at, st.Mutes, st.MutesRefused, honoured, refused)
			}
			if got := s.Set(int(key), -1e6); got != 0 {
				t.Errorf("%s: dropped key %d pushed %d refreshes", what, key, got)
			}
		}
		far := 1e6
		push := func() {
			t.Helper()
			far = -far
			if got := s.Set(0, far); got != 1 {
				t.Fatalf("Set on the live key pushed %d refreshes, want 1", got)
			}
		}

		call(subscribeOne(1, 0)) // stays live: the source of pushes
		push()
		call(subscribeOne(2, 1))
		judge("one-key SubscribeMulti", 1)
		push()
		call(readOne(3, 2))
		judge("one-key ReadMulti", 2)
		push()
		if e, ok := call(readOne(4, 999)).(*netproto.Error2); !ok || e.Code != netproto.CodeUnknownKey {
			t.Fatalf("read of an unknown key answered %#v", e)
		}
		call(&netproto.SubscribeMulti{ID: 5, Keys: []int64{3, 4}})
		judge("SubscribeMulti", 4)
		push()
		if u, ok := call(&netproto.RegisterQuery{ID: 6, QID: 1, Kind: query.Sum, Delta: 50, Keys: []int64{5, 6}}).(*netproto.QueryUpdate); !ok || u.ID != 6 {
			t.Fatalf("RegisterQuery acked with %#v", u)
		}
		s.Set(5, 1e6) // the standing answer moves: a QueryUpdate push, ID 0
		call(&netproto.ReadMulti{ID: 7, Keys: []int64{6, 7}})
		judge("ReadMulti", 7)

		// HelloAck, 7 requests answered, 4 barrier Pongs.
		if n != 12 {
			t.Errorf("counted %d replies, want 12", n)
		}
		if pushes < 5 {
			t.Errorf("only %d pushes were interleaved, want the 4 Sets' and the standing query's", pushes)
		}
	})
}
