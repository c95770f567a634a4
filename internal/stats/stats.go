// Package stats provides the measurement machinery for the performance
// study: refresh counters, a cost-rate meter with warm-up discard, running
// summaries, and time-series recorders for the trace figures.
package stats

import (
	"fmt"
	"math"
)

// CostMeter accumulates refresh costs over simulated time and reports the
// average cost rate Omega, discarding everything before the warm-up horizon
// ("Measurements taken during an initial warm-up period were discarded",
// Section 4.2).
type CostMeter struct {
	warmup float64
	start  float64 // earliest post-warm-up instant seen
	last   float64 // latest instant seen

	cost     float64 // total post-warm-up cost
	vir, qir int     // post-warm-up refresh counts
}

// NewCostMeter returns a meter that ignores costs incurred strictly before
// warmup (in simulation time units).
func NewCostMeter(warmup float64) *CostMeter {
	return &CostMeter{warmup: warmup, start: math.NaN(), last: math.NaN()}
}

// observe advances the meter clock.
func (m *CostMeter) observe(now float64) {
	if now < m.warmup {
		return
	}
	if math.IsNaN(m.start) {
		m.start = now
	}
	if math.IsNaN(m.last) || now > m.last {
		m.last = now
	}
}

// Tick advances the clock without charging any cost. Call it at simulation
// end so idle tail time counts toward the rate denominator.
func (m *CostMeter) Tick(now float64) { m.observe(now) }

// ValueRefresh charges a value-initiated refresh of the given cost at time
// now.
func (m *CostMeter) ValueRefresh(now, cost float64) {
	if now < m.warmup {
		return
	}
	m.observe(now)
	m.vir++
	m.cost += cost
}

// QueryRefresh charges a query-initiated refresh of the given cost at time
// now.
func (m *CostMeter) QueryRefresh(now, cost float64) {
	if now < m.warmup {
		return
	}
	m.observe(now)
	m.qir++
	m.cost += cost
}

// ValueRefreshes returns the post-warm-up value-initiated refresh count.
func (m *CostMeter) ValueRefreshes() int { return m.vir }

// QueryRefreshes returns the post-warm-up query-initiated refresh count.
func (m *CostMeter) QueryRefreshes() int { return m.qir }

// Elapsed returns the measured (post-warm-up) time span.
func (m *CostMeter) Elapsed() float64 {
	if math.IsNaN(m.start) || math.IsNaN(m.last) {
		return 0
	}
	return m.last - m.start
}

// Rate returns the average cost per time unit over the measured span, the
// metric Omega the study reports. It returns 0 before any post-warm-up
// observation.
func (m *CostMeter) Rate() float64 {
	el := m.Elapsed()
	if el <= 0 {
		return 0
	}
	return m.cost / el
}

// RefreshRates returns the post-warm-up value- and query-initiated refresh
// counts per time unit, the measured Pvr and Pqr of Section 4.2.
func (m *CostMeter) RefreshRates() (pvr, pqr float64) {
	el := m.Elapsed()
	if el <= 0 {
		return 0, 0
	}
	return float64(m.vir) / el, float64(m.qir) / el
}

// Summary accumulates running moments and extrema of a sample stream without
// storing the samples.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds a sample into the summary (Welford's update).
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the sample count.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance.
func (s *Summary) Var() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 { return s.max }

// String renders the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Point is one (time, value) sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series records a named time series, used to regenerate the Figure 4/5
// value-and-interval traces.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample.
func (s *Series) Append(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Window returns the sub-series with T in [lo, hi).
func (s *Series) Window(lo, hi float64) []Point {
	out := make([]Point, 0, len(s.Points))
	for _, p := range s.Points {
		if p.T >= lo && p.T < hi {
			out = append(out, p)
		}
	}
	return out
}
