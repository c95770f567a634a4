package server

import (
	"testing"
	"time"

	"apcache/internal/netproto"
)

// TestValueLockFree proves Server.Value takes no shard mutex: it is called
// while the test itself holds the key's shard lock, which would deadlock
// (Go mutexes are not reentrant) if Value still went through the mutex.
func TestValueLockFree(t *testing.T) {
	s := New(testConfig())
	s.SetInitial(5, 42)
	sh := s.eng.For(5)
	sh.Mu.Lock()
	v, ok := s.Value(5)
	if _, miss := s.Value(6); miss {
		t.Errorf("unknown key reported present")
	}
	sh.Mu.Unlock()
	if !ok || v != 42 {
		t.Fatalf("Value under held shard lock = %g, %v; want 42, true", v, ok)
	}
}

// TestValueSeesUpdates checks the lock-free table tracks Set exactly, not
// just SetInitial.
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
	if got := s.RefreshCost(); got != 0 {
		t.Fatalf("RefreshCost before any read = %v, want 0", got)
	}

	conn := rawDial(t, addr.String())
	hello(t, conn, 16)
	for i := 0; i < 4; i++ {
		if err := netproto.Write(conn, &netproto.Read{ID: uint64(i + 1), Key: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := netproto.ReadMsg(conn); err != nil {
			t.Fatal(err)
		}
	}
	cost := s.RefreshCost()
	if cost <= 0 {
		t.Fatalf("RefreshCost after reads = %v, want > 0", cost)
	}
	if cost > time.Second {
		t.Fatalf("RefreshCost absurdly large: %v", cost)
	}
	if st := s.Stats(); st.RefreshCost != cost {
		t.Errorf("Stats.RefreshCost = %v, RefreshCost() = %v", st.RefreshCost, cost)
	}
}

// BenchmarkServerValue measures the lock-free value read under concurrent
// readers. The sub-benchmark keeps the name its BENCH_store.json row has; the
// "locked" row there is history (the mutex path no longer exists).
func BenchmarkServerValue(b *testing.B) {
	b.Run("lockfree", func(b *testing.B) {
		s := New(testConfig())
		const keys = 1024
		for k := 0; k < keys; k++ {
			s.SetInitial(k, float64(k))
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			k := 0
			for pb.Next() {
				if _, ok := s.Value(k & (keys - 1)); !ok {
					b.Fatal("missing key")
				}
				k++
			}
		})
	})
}
