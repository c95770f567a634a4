package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCostMeterWarmupDiscard(t *testing.T) {
	m := NewCostMeter(100)
	m.ValueRefresh(50, 4) // warm-up, discarded
	m.QueryRefresh(99, 2) // warm-up, discarded
	m.ValueRefresh(100, 4)
	m.QueryRefresh(150, 2)
	m.Tick(200)
	if m.ValueRefreshes() != 1 || m.QueryRefreshes() != 1 {
		t.Errorf("post-warm-up counts = %d/%d, want 1/1", m.ValueRefreshes(), m.QueryRefreshes())
	}
	if got := m.Elapsed(); got != 100 {
		t.Errorf("Elapsed = %g, want 100", got)
	}
	if got := m.Rate(); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("Rate = %g, want 0.06", got)
	}
}

func TestCostMeterRefreshRates(t *testing.T) {
	m := NewCostMeter(0)
	for i := 0; i < 10; i++ {
		m.ValueRefresh(float64(i), 1)
	}
	for i := 0; i < 5; i++ {
		m.QueryRefresh(float64(i), 2)
	}
	m.Tick(100)
	pvr, pqr := m.RefreshRates()
	if math.Abs(pvr-0.1) > 1e-12 || math.Abs(pqr-0.05) > 1e-12 {
		t.Errorf("rates = %g/%g, want 0.1/0.05", pvr, pqr)
	}
}

func TestCostMeterEmpty(t *testing.T) {
	m := NewCostMeter(10)
	if m.Rate() != 0 || m.Elapsed() != 0 {
		t.Errorf("empty meter: rate=%g elapsed=%g", m.Rate(), m.Elapsed())
	}
	pvr, pqr := m.RefreshRates()
	if pvr != 0 || pqr != 0 {
		t.Errorf("empty meter rates %g/%g", pvr, pqr)
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %g, want 2", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Errorf("empty String()")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 {
		t.Errorf("empty summary mean/var = %g/%g", s.Mean(), s.Var())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "value"
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	w := s.Window(3, 6)
	if len(w) != 3 || w[0].T != 3 || w[2].T != 5 {
		t.Errorf("Window(3,6) = %+v", w)
	}
}

func TestQuickSummaryMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				ok = false
				break
			}
			s.Add(x)
		}
		if !ok || s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.Var() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
