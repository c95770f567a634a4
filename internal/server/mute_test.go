package server

import (
	"testing"
	"time"

	"apcache/internal/netproto"
)

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
		hello(t, conn, 128) // reply 1
		roundTrip := func(m netproto.Message) netproto.Message {
			t.Helper()
			if err := netproto.Write(conn, m); err != nil {
				t.Fatal(err)
			}
			for {
				got, err := netproto.ReadMsg(conn)
				if err != nil {
					t.Fatal(err)
				}
				switch r := got.(type) { // skip the pushes the Sets below cause
				case *netproto.Refresh:
					if r.ID == 0 {
						continue
					}
				case *netproto.RefreshBatch:
					if r.ID == 0 {
						continue
					}
				}
				return got
			}
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

		// A Mute is not batch cargo.
		rep := roundTrip(&netproto.Batch{Msgs: []netproto.Message{&netproto.Ping{ID: 5}, &netproto.Mute{Seen: 99, Keys: []int64{1}}}})
		if b, ok := rep.(*netproto.Batch); !ok || len(b.Msgs) != 2 {
			t.Fatalf("batch reply %#v", rep)
		} else if e, ok := b.Msgs[1].(*netproto.Error2); !ok || e.Code != netproto.CodeUnsupported {
			t.Errorf("Mute inside a Batch answered with %#v, want an unsupported error", b.Msgs[1])
		}
		expect("mute inside a batch ignored", 1, 3, 3)

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
