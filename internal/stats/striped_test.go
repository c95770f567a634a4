package stats

import (
	"sync"
	"testing"
)

func TestStripesBasics(t *testing.T) {
	s := NewStripes(4, 3)
	if s.Stripes() != 4 || s.Counters() != 3 {
		t.Fatalf("dimensions %dx%d, want 4x3", s.Stripes(), s.Counters())
	}
	s.Inc(0, 0)
	s.Add(1, 0, 9)
	s.Add(3, 0, -2)
	if got := s.Sum(0); got != 8 {
		t.Errorf("Sum(0) = %d, want 8", got)
	}
	s.Add(2, 1, 7)
	if got := s.Load(2, 1); got != 7 {
		t.Errorf("Load(2,1) = %d, want 7", got)
	}
	if got := s.Sum(2); got != 0 {
		t.Errorf("untouched counter sums to %d, want 0", got)
	}
}

func TestStripesPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range counter index did not panic")
		}
	}()
	NewStripes(2, 2).Add(0, 2, 1)
}

// TestStripesConcurrentSum hammers every stripe from its own goroutine while
// a reader sums continuously; the final total must be exact.
func TestStripesConcurrentSum(t *testing.T) {
	const stripes, perStripe = 8, 5000
	s := NewStripes(stripes, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent aggregation must never see torn state
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := s.Sum(0); v < 0 || v > stripes*perStripe {
				t.Errorf("Sum(0) = %d out of range", v)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < stripes; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perStripe; i++ {
				s.Inc(g, 0)
				s.Add(g, 1, 2)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := s.Sum(0); got != stripes*perStripe {
		t.Errorf("Sum(0) = %d, want %d", got, stripes*perStripe)
	}
	if got := s.Sum(1); got != 2*stripes*perStripe {
		t.Errorf("Sum(1) = %d, want %d", got, 2*stripes*perStripe)
	}
}
