package server

import (
	"net"
	"testing"
	"time"

	"apcache/internal/netproto"
)

// nextReply reads frames off a raw connection up to the next reply, counting
// as the client does: a Refresh, RefreshBatch or QueryUpdate with ID 0 is a
// push, every other frame is one reply. It returns the reply and how many
// pushes came before it.
func nextReply(t *testing.T, conn net.Conn) (reply netproto.Message, pushes int) {
	t.Helper()
	for {
		got, err := netproto.ReadMsg(conn)
		if err != nil {
			t.Fatalf("waiting for a reply: %v", err)
		}
		id := uint64(1) // Pong, HelloAck, Error2: always a reply
		switch r := got.(type) {
		case *netproto.Refresh:
			id = r.ID
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
// carrying it, and a mute is honoured only at or above that number. A muted
// key keeps adapting and pushes nothing until it is read again.
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
		counts := func() (muted, mutes, refused int) {
			st := s.Stats()
			for _, sh := range st.PerShard {
				muted += sh.Muted
			}
			return muted, st.Mutes, st.MutesRefused
		}
		expect := func(what string, muted, mutes, refused int) {
			t.Helper()
			// A Ping's reply proves the fire-and-forget frame before it was served.
			roundTrip(&netproto.Ping{ID: 99})
			if a, b, c := counts(); a != muted || b != mutes || c != refused {
				t.Fatalf("%s: muted=%d mutes=%d refused=%d, want %d %d %d", what, a, b, c, muted, mutes, refused)
			}
		}
		roundTrip(&netproto.SubscribeMulti{ID: 1, Keys: []int64{0, 1, 2}}) // reply 2
		roundTrip(&netproto.Read{ID: 2, Key: 0})                           // reply 3 carries key 0

		netproto.Write(conn, &netproto.Mute{Seen: 2, Keys: []int64{0, 1, 3, 77}})
		// 0: its reply 3 is unread at Seen 2. 1: fine. 3 and 77: never subscribed.
		expect("mute below the mark", 1, 1, 3) // the Ping was reply 4
		if n := s.Set(1, 1e6); n != 0 {
			t.Errorf("muted key 1 pushed %d refreshes", n)
		}
		if n := s.Set(0, 1e6); n != 1 {
			t.Errorf("key 0, whose mute was refused, pushed %d refreshes, want 1", n)
		}
		w := s.eng.For(1)
		w.Mu.Lock()
		iv, _ := w.Src.IntervalFor(1, 1)
		w.Mu.Unlock()
		if !iv.Valid(1e6) || iv.Width() != 20 {
			t.Errorf("muted key 1 holds %v after an escape, want width 20 around 1e6 (the virtual refresh)", iv)
		}

		// The tail of a ReadMulti is served before its reads: key 2 muted by
		// the tail and read by the same frame ends up live.
		rb := roundTrip(&netproto.ReadMulti{ID: 3, Keys: []int64{2}, Seen: 4, Mute: []int64{0, 2}}) // reply 5
		if b, ok := rb.(*netproto.RefreshBatch); !ok || len(b.Items) != 1 || b.Items[0].Key != 2 {
			t.Fatalf("ReadMulti reply %#v", rb)
		}
		expect("tail then reads", 2, 3, 3) // 0 and 1 muted; 2 muted then unmuted by its read
		if n := s.Set(2, 1e6); n != 1 {
			t.Errorf("key 2, read after its mute, pushed %d refreshes, want 1", n)
		}
		// A read brings a muted key back.
		roundTrip(&netproto.Read{ID: 4, Key: 1})
		expect("read of a muted key", 1, 3, 3)
		if n := s.Set(1, -1e6); n != 1 {
			t.Errorf("key 1, read again, pushed %d refreshes, want 1", n)
		}

		// Teardown takes the muted subscriptions with it.
		conn.Close()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if muted, _, _ := counts(); muted == 0 && s.Clients() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("muted gauge did not return to zero after the disconnect")
			}
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
				t.Errorf("%s: muted key %d pushed %d refreshes", what, key, got)
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

		call(&netproto.Subscribe{ID: 1, Key: 0}) // stays live: the source of pushes
		push()
		call(&netproto.Subscribe{ID: 2, Key: 1})
		judge("Subscribe", 1)
		push()
		call(&netproto.Read{ID: 3, Key: 2})
		judge("Read", 2)
		push()
		if e, ok := call(&netproto.Read{ID: 4, Key: 999}).(*netproto.Error2); !ok || e.Code != netproto.CodeUnknownKey {
			t.Fatalf("read of an unknown key answered %#v", e)
		}
		call(&netproto.SubscribeMulti{ID: 5, Keys: []int64{3, 4}})
		judge("SubscribeMulti", 4)
		push()
		if u, ok := call(&netproto.RegisterQuery{ID: 6, QID: 1, Kind: netproto.AggSum, Delta: 50, Keys: []int64{5, 6}}).(*netproto.QueryUpdate); !ok || u.ID != 6 {
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
