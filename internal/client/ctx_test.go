// Tests of the API v1 surface: context plumbing (deadlines, cancellation,
// correlation-slot hygiene), the typed error taxonomy across the wire, and
// the MAX/MIN refinement ramp.
package client

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/aperrs"
	"apcache/internal/netproto"
	"apcache/internal/workload"
)

func TestExpiredContextWritesNoFrame(t *testing.T) {
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	c := dial(t, addr, 10)
	before := c.Stats().FramesSent
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.ReadExactCtx(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := c.ReadMultiCtx(ctx, []int{0}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadMulti err = %v, want context.DeadlineExceeded", err)
	}
	if err := c.PingCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Ping err = %v, want context.DeadlineExceeded", err)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Errorf("%d correlation slots leaked by expired-context calls", n)
	}
	// Nothing touched the wire. The writer is asynchronous, so a stray
	// frame would not necessarily be visible instantly — prove the counter
	// is exact by round-tripping a Ping (exactly one more frame).
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if sent := c.Stats().FramesSent - before; sent != 1 {
		t.Errorf("expired-context calls wrote %d frames, want 0", sent-1)
	}
}

func TestCancelMidCallFreesCorrelationSlot(t *testing.T) {
	s, addr := newStubServer(t)
	c := dialCfg(t, addr, Config{CacheSize: 4, Timeout: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadExactCtx(ctx, 9)
		done <- err
	}()
	// Wait until the call is registered, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for c.PendingCalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("call never registered")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d correlation slots leaked after cancellation", n)
	}
	// The late response must be treated as unsolicited: interval installed,
	// connection healthy.
	close(s.release)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if iv, ok := c.Get(9); ok && iv.Valid(42) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late response's interval never installed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("Ping after cancelled call: %v", err)
	}
}

func TestCancelMidReadMulti(t *testing.T) {
	// Cancellation racing a pipelined multi-chunk read: every outstanding
	// chunk's slot must be freed, and the client must stay usable.
	srv, addr := newServer(t)
	const keys = 300 // 3 chunks at maxBatch 128
	all := make([]int, keys)
	for k := 0; k < keys; k++ {
		all[k] = k
		srv.SetInitial(k, float64(k))
	}
	c := dial(t, addr, keys)
	for trial := 0; trial < 20; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.ReadMultiCtx(ctx, all)
			done <- err
		}()
		time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
		cancel()
		err := <-done
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want nil or context.Canceled", trial, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.PendingCalls() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("trial %d: %d correlation slots leaked", trial, c.PendingCalls())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("client unhealthy after cancel storm: %v", err)
	}
}

func TestCancelBetweenRefinementRounds(t *testing.T) {
	// A MAX query over cached, overlapping intervals refines in rounds of 1,
	// 8 and then the rest of its 12 keys (misses would all go out in round 1,
	// so the test subscribes first and the stub replies with bounded
	// intervals — a push for keys never requested would be ignored). The stub
	// answers the first round's fetch and parks every later one; cancelling
	// then must end the query mid-ramp with context.Canceled instead of
	// waiting out the remaining rounds.
	const keys = 12
	all := make([]int, keys)
	for i := range all {
		all[i] = i + 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	firstAnswered := make(chan struct{})
	var reads atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := readMsg(conn)
			if err != nil {
				conn.Close()
				return
			}
			switch m := msg.(type) {
			case *netproto.Hello:
				netproto.Write(conn, &netproto.HelloAck{ID: m.ID, Version: netproto.Version})
			case *netproto.SubscribeMulti:
				initial := &netproto.RefreshBatch{ID: m.ID}
				for _, k := range m.Keys {
					initial.Items = append(initial.Items, netproto.RefreshItem{
						Key: k, Kind: netproto.KindInitial,
						Lo: 0, Hi: 10 + float64(k), OriginalWidth: 10 + float64(k),
					})
				}
				netproto.Write(conn, initial)
			case *netproto.ReadMulti:
				if reads.Add(1) == 1 {
					netproto.Write(conn, &netproto.RefreshBatch{ID: m.ID, Items: []netproto.RefreshItem{{
						Key: m.Keys[0], Kind: netproto.KindQueryInitiated,
						Value: 5, Lo: 5, Hi: 5,
					}}})
					close(firstAnswered)
				}
				// Later rounds: never answered; the cancel must win.
			}
		}
	}()
	c := dialCfg(t, ln.Addr().String(), Config{CacheSize: keys, Timeout: time.Minute})
	if err := c.SubscribeMulti(all); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-firstAnswered
		cancel()
	}()
	_, qerr := c.QueryCtx(ctx, workload.Query{Kind: workload.Max, Keys: all, Delta: 0})
	if !errors.Is(qerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", qerr)
	}
	// Mid-ramp means rounds 2 and 3 never both ran: at most the in-flight
	// second fetch was issued, never the third.
	if n := reads.Load(); n > 2 {
		t.Errorf("cancelled query issued %d fetch rounds, want <= 2", n)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Errorf("%d correlation slots leaked", n)
	}
}

func TestCancelRacesClose(t *testing.T) {
	srv, addr := newServer(t)
	for k := 0; k < 8; k++ {
		srv.SetInitial(k, float64(k))
	}
	c, err := DialConfig(addr, Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(time.Duration(g) * 50 * time.Microsecond)
					cancel()
				}()
				var err error
				switch g % 3 {
				case 0:
					_, err = c.ReadExactCtx(ctx, g)
				case 1:
					_, err = c.ReadMultiCtx(ctx, []int{0, 1, 2, 3})
				default:
					_, err = c.QueryCtx(ctx, workload.Query{Kind: workload.Max, Keys: []int{4, 5, 6}, Delta: 0})
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					return // closed underneath us: expected
				}
				cancel()
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	if _, err := c.ReadExactCtx(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close err = %v, want ErrClosed", err)
	}
}

func TestDefaultTimeoutMatchesTaxonomy(t *testing.T) {
	_, addr := newStubServer(t)
	c := dialCfg(t, addr, Config{CacheSize: 4, Timeout: 50 * time.Millisecond})
	_, err := c.ReadExact(9)
	if !errors.Is(err, aperrs.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v should also match context.DeadlineExceeded", err)
	}
	// A per-call deadline overrides the default and fails with the
	// context's own error.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.ReadExactCtx(ctx, 9)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ctx deadline err = %v, want context.DeadlineExceeded", err)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Errorf("%d correlation slots leaked by timeouts", n)
	}
}

func TestUnknownKeyTypedAcrossWire(t *testing.T) {
	// The acceptance property of the error taxonomy: errors.Is/As resolves
	// an unknown-key failure from a server exactly as in-process.
	srv, addr := newServer(t)
	srv.SetInitial(0, 1)
	c := dial(t, addr, 10)
	_, err := c.ReadExactCtx(context.Background(), 42)
	if !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Fatalf("ReadExact err = %v, want ErrUnknownKey match", err)
	}
	var ke *aperrs.KeyError
	if !errors.As(err, &ke) || ke.Key != 42 {
		t.Fatalf("errors.As key = %+v, want 42", ke)
	}
	if err := c.Subscribe(43); !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Fatalf("Subscribe err = %v, want ErrUnknownKey match", err)
	}
	err = c.SubscribeMulti([]int{0, 44})
	if !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Fatalf("SubscribeMulti err = %v, want ErrUnknownKey match", err)
	}
	if !errors.As(err, &ke) || ke.Key != 44 {
		t.Fatalf("SubscribeMulti key = %+v, want 44", ke)
	}
	if _, err := c.Query(workload.Query{Kind: workload.Sum, Keys: []int{0, 45}, Delta: 0}); !errors.Is(err, aperrs.ErrUnknownKey) {
		t.Fatalf("Query err = %v, want ErrUnknownKey match", err)
	}
}

// TestFirstQueryRampsLikeTheRest pins the client's one refinement ramp: a
// fresh session's first MAX query over bounded, overlapping intervals goes
// out in rounds of 1, 8 and 64 keys, exactly like every later one — no
// measurement has to warm up first.
func TestFirstQueryRampsLikeTheRest(t *testing.T) {
	const keys = 100
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var rounds []int
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			msg, err := readMsg(conn)
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *netproto.Hello:
				netproto.Write(conn, &netproto.HelloAck{ID: m.ID, Version: netproto.Version})
			case *netproto.SubscribeMulti:
				initial := &netproto.RefreshBatch{ID: m.ID}
				for _, k := range m.Keys {
					initial.Items = append(initial.Items, netproto.RefreshItem{
						Key: k, Kind: netproto.KindInitial,
						Lo: 0, Hi: 10 + float64(k), OriginalWidth: 10 + float64(k),
					})
				}
				netproto.Write(conn, initial)
			case *netproto.ReadMulti:
				// Every exact value is the common lower endpoint, so no
				// answer eliminates a candidate and the ramp alone
				// sizes the next round.
				mu.Lock()
				rounds = append(rounds, len(m.Keys))
				mu.Unlock()
				rb := &netproto.RefreshBatch{ID: m.ID}
				for _, k := range m.Keys {
					rb.Items = append(rb.Items, netproto.RefreshItem{Key: k, Kind: netproto.KindQueryInitiated})
				}
				netproto.Write(conn, rb)
			}
		}
	}()
	all := make([]int, keys)
	for k := range all {
		all[k] = k
	}
	c := dialCfg(t, ln.Addr().String(), Config{CacheSize: keys})
	if err := c.SubscribeMulti(all); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(workload.Query{Kind: workload.Max, Keys: all, Delta: 0}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]int(nil), rounds...)
	mu.Unlock()
	if want := []int{1, 8, 64, 27}; !slices.Equal(got, want) {
		t.Errorf("first query fetched rounds of %v keys, want %v", got, want)
	}
	if c.Stats().SmoothedRTT <= 0 {
		t.Errorf("SmoothedRTT not recorded after the session's calls")
	}
}
