// Tests of the API v1 surface at the Store level: context-bounded queries
// and the in-process Watch stream.
package apcache

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestStoreDoCtxCancellation(t *testing.T) {
	s := newStore(t)
	for k := 0; k < 8; k++ {
		s.Track(k, float64(k))
	}
	// An already-done context fails before any refresh is charged.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := s.Stats().QueryRefreshes
	if _, err := s.DoCtx(ctx, Query{Kind: Sum, Keys: []int{0, 1}, Delta: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Stats().QueryRefreshes; got != before {
		t.Errorf("cancelled DoCtx charged %d refreshes", got-before)
	}
	// An expired deadline reports context.DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := s.DoCtx(dctx, Query{Kind: Max, Keys: []int{0, 1}, Delta: 0}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// A live context behaves exactly like Do.
	ans, err := s.DoCtx(context.Background(), Query{Kind: Sum, Keys: []int{1, 2}, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Result.IsExact() || ans.Result.Lo != 3 {
		t.Errorf("result %v, want [3, 3]", ans.Result)
	}
}

func TestStoreWatchStreamsRefreshes(t *testing.T) {
	s := newStore(t) // width 10 intervals
	s.Track(1, 100)
	s.Track(2, 200)
	w, err := s.Watch(1, 2)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	// The stream opens with the current approximations.
	seen := map[int]bool{}
	deadline := time.After(5 * time.Second)
	for len(seen) < 2 {
		select {
		case u := <-w.Updates():
			want := map[int]float64{1: 100, 2: 200}[u.Key]
			if !u.Interval.Valid(want) {
				t.Errorf("key %d seed %v invalid for %g", u.Key, u.Interval, want)
			}
			seen[u.Key] = true
		case <-deadline:
			t.Fatalf("seed updates never arrived")
		}
	}
	// A value-initiated refresh (escape) is streamed.
	if !s.Set(1, 1e6) {
		t.Fatalf("escape did not refresh")
	}
	for {
		select {
		case u := <-w.Updates():
			if u.Key == 1 && u.Interval.Valid(1e6) {
				return
			}
		case <-deadline:
			t.Fatalf("escape refresh never streamed")
		}
	}
}

func TestStoreWatchSeedsUncachedKey(t *testing.T) {
	// A one-entry cache admits key 1 and refuses key 2, whose source still
	// holds its approximation: the stream opens with it, as a client's does.
	s, err := NewStore(Options{
		Params:       Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 10, CacheSize: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Track(1, 10)
	s.Track(2, 20)
	if _, ok := s.Get(2); ok {
		t.Fatalf("key 2 cached; the test needs it refused")
	}
	w, err := s.Watch(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	select {
	case u := <-w.Updates():
		if u.Key != 2 || !u.Interval.Valid(20) {
			t.Errorf("seed %d %v, want key 2 valid for 20", u.Key, u.Interval)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no seed for the uncached key")
	}
}

func TestStoreWatchUnknownKey(t *testing.T) {
	s := newStore(t)
	s.Track(0, 1)
	if _, err := s.Watch(0, 9); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Watch err = %v, want ErrUnknownKey match", err)
	}
}

func TestStoreWatchHammer(t *testing.T) {
	// Writers hammer watched keys while a deliberately slow consumer reads:
	// the writers must never block (latest-wins coalescing), every observed
	// interval must have been valid for some written value, and each key's
	// final state must eventually be observed.
	s, err := NewStore(Options{InitialWidth: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	for k := 0; k < keys; k++ {
		s.Track(k, 0)
	}
	w, err := s.Watch(0, 1, 2, 3, 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const rounds = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				for k := g; k < keys; k += 4 {
					s.Set(k, float64(i*1000*(k+1)))
				}
			}
		}(g)
	}
	wg.Wait()
	// All writers done: each key's newest interval must reach the consumer.
	finals := make(map[int]float64, keys)
	for k := 0; k < keys; k++ {
		finals[k] = float64(rounds * 1000 * (k + 1))
	}
	seenFinal := map[int]bool{}
	deadline := time.After(10 * time.Second)
	for len(seenFinal) < keys {
		select {
		case u, ok := <-w.Updates():
			if !ok {
				t.Fatalf("stream ended early: %v", w.Err())
			}
			time.Sleep(50 * time.Microsecond) // slow consumer
			if u.Interval.Valid(finals[u.Key]) {
				seenFinal[u.Key] = true
			}
		case <-deadline:
			t.Fatalf("final states never observed (%d/%d)", len(seenFinal), keys)
		}
	}
	if w.Coalesced() == 0 {
		t.Logf("note: no coalescing occurred this run (timing-dependent)")
	}
}

func TestStoreWatchCloseDetaches(t *testing.T) {
	s := newStore(t)
	s.Track(0, 1)
	w, err := s.Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for range w.Updates() {
	}
	if err := w.Err(); err != nil {
		t.Errorf("Err after clean Close: %v", err)
	}
	// Writes after detach take the no-watch fast path again.
	s.Set(0, 1e9)
	s.Set(0, -1e9)
}
