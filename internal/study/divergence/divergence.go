// Package divergence implements the Divergence Caching baseline of Huang,
// Sloan and Wolfson [HSW94] that Section 4.7 compares against, together with
// the stale-count width policy that specializes the paper's adaptive
// algorithm to the Divergence Caching setting at theta' = Cvr/Cqr, the one
// place the study departs from the controller's theta = 2*Cvr/Cqr.
//
// In Divergence Caching the approximation is a stale copy whose precision is
// the number of source updates not yet reflected in the cache: a divergence
// limit g promises at most g unseen updates. The source pushes a refresh
// after the g-th unseen update (value-initiated); a query whose staleness
// constraint is tighter than g fetches the exact value (query-initiated).
// Rather than adjusting g incrementally, the HSW94 algorithm continually
// re-derives it from projections of read and write rates estimated over
// moving windows of the k most recent reads and writes (k = 23 in the
// paper's trials), choosing the g that minimizes the projected cost rate
//
//	cost(g) = Cvr * writeRate / g  +  Cqr * readRate * P(constraint < g)
//
// where P is estimated from a window of recently observed constraints. The
// original publication is not reproduced here; this reconstruction follows
// the SIGMOD 2001 paper's description of the mechanism it benchmarks.
package divergence

import (
	"fmt"
	"math"
	"math/rand"

	"apcache/internal/study/stats"
	"apcache/internal/workload"
)

// Config describes one Divergence Caching simulation run.
type Config struct {
	// NumSources is n.
	NumSources int
	// Cvr and Cqr are the refresh costs. Section 4.7 uses Cvr=1, Cqr=2.
	Cvr, Cqr float64
	// K is the moving-window size (23 in the paper).
	K int
	// GMax bounds the divergence-limit search.
	GMax int
	// Updates per second per source: every update increments each value's
	// unseen-update count. The study's stale-count workload updates every
	// value every second.
	Tq float64
	// Constraints is the staleness-constraint distribution (davg swept
	// 0..14 in Figures 14-15).
	Constraints workload.ConstraintDist
	// UpdateGate, when non-nil, decides whether source key receives an
	// update at time now. It lets comparisons drive both algorithms with
	// the same (possibly regime-switching) update process; nil means an
	// update every second.
	UpdateGate func(now float64, key int) bool
	// Duration and Warmup are in seconds.
	Duration, Warmup float64
	// Seed makes the run deterministic.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumSources <= 0:
		return fmt.Errorf("divergence: NumSources must be positive, got %d", c.NumSources)
	case c.Cvr < 0 || c.Cqr <= 0:
		return fmt.Errorf("divergence: bad costs Cvr=%g Cqr=%g", c.Cvr, c.Cqr)
	case c.K < 1:
		return fmt.Errorf("divergence: K must be >= 1, got %d", c.K)
	case c.GMax < 1:
		return fmt.Errorf("divergence: GMax must be >= 1, got %d", c.GMax)
	case c.Tq <= 0:
		return fmt.Errorf("divergence: Tq must be positive, got %g", c.Tq)
	case c.Duration <= 0:
		return fmt.Errorf("divergence: Duration must be positive, got %g", c.Duration)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("divergence: Warmup %g out of range [0, %g)", c.Warmup, c.Duration)
	}
	return nil
}

// Result carries one run's measurements.
type Result struct {
	// CostRate is the post-warm-up average cost per second.
	CostRate float64
	// Pvr and Pqr are the measured refresh rates per second.
	Pvr, Pqr float64
	// FinalLimits holds each source's divergence limit at run end.
	FinalLimits []int
}

// window is a fixed-size ring of float64 observations.
type window struct {
	buf  []float64
	n    int
	next int
}

func newWindow(k int) *window { return &window{buf: make([]float64, k)} }

func (w *window) add(x float64) {
	w.buf[w.next] = x
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

func (w *window) full() bool { return w.n == len(w.buf) }

// span returns newest-minus-oldest among the recorded times.
func (w *window) span() float64 {
	if w.n < 2 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < w.n; i++ {
		v := w.buf[i]
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// rate returns events per time unit estimated from the window.
func (w *window) rate() float64 {
	sp := w.span()
	if sp <= 0 {
		return 0
	}
	return float64(w.n-1) / sp
}

// fractionBelow returns the fraction of recorded values strictly below x.
func (w *window) fractionBelow(x float64) float64 {
	if w.n == 0 {
		return 0.5 // uninformed prior
	}
	c := 0
	for i := 0; i < w.n; i++ {
		if w.buf[i] < x {
			c++
		}
	}
	return float64(c) / float64(w.n)
}

// sourceState is one value's Divergence Caching state.
type sourceState struct {
	limit       int     // current divergence limit g
	staleness   int     // updates not reflected at the cache
	writeTimes  *window // source-side window of write times
	readTimes   *window // cache-side window of read times
	constraints *window // recently observed staleness constraints
}

// chooseLimit minimizes the projected cost over g in [0, gmax]. g = 0 is
// exact caching: every update is pushed (cost Cvr*writeRate) and every read
// is served locally; g > 0 amortizes pushes over g updates but pays a remote
// read for every query whose constraint is tighter than g.
func chooseLimit(cvr, cqr, writeRate, readRate float64, constraints *window, gmax int) int {
	bestG, bestCost := 0, cvr*writeRate
	for g := 1; g <= gmax; g++ {
		cost := cvr*writeRate/float64(g) + cqr*readRate*constraints.fractionBelow(float64(g))
		if cost < bestCost {
			bestG, bestCost = g, cost
		}
	}
	return bestG
}

// Run executes one Divergence Caching simulation. Each query touches one
// randomly chosen source, matching the single-item stale-value setting of
// HSW94.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	states := make([]*sourceState, cfg.NumSources)
	for i := range states {
		states[i] = &sourceState{
			limit:       1,
			writeTimes:  newWindow(cfg.K),
			readTimes:   newWindow(cfg.K),
			constraints: newWindow(cfg.K),
		}
	}
	meter := stats.NewCostMeter(cfg.Warmup)

	recompute := func(st *sourceState) {
		st.limit = chooseLimit(cfg.Cvr, cfg.Cqr, st.writeTimes.rate(), st.readTimes.rate(), st.constraints, cfg.GMax)
	}

	nextUpdate, nextQuery := 1.0, cfg.Tq
	for {
		now := math.Min(nextUpdate, nextQuery)
		if now > cfg.Duration {
			break
		}
		if nextUpdate <= nextQuery {
			for key, st := range states {
				if cfg.UpdateGate != nil && !cfg.UpdateGate(now, key) {
					continue
				}
				st.writeTimes.add(now)
				st.staleness++
				if st.staleness > st.limit {
					meter.ValueRefresh(now, cfg.Cvr)
					st.staleness = 0
					// A refresh is the opportunity to reset the limit from
					// scratch using the current window projections.
					recompute(st)
				}
			}
			nextUpdate++
		} else {
			st := states[rng.Intn(cfg.NumSources)]
			delta := cfg.Constraints.Sample(rng)
			st.readTimes.add(now)
			st.constraints.add(delta)
			if float64(st.limit) > delta {
				meter.QueryRefresh(now, cfg.Cqr)
				st.staleness = 0
				recompute(st)
			}
			nextQuery += cfg.Tq
		}
	}
	meter.Tick(cfg.Duration)

	res := Result{CostRate: meter.Rate(), FinalLimits: make([]int, cfg.NumSources)}
	res.Pvr, res.Pqr = meter.RefreshRates()
	for i, st := range states {
		res.FinalLimits[i] = st.limit
	}
	return res, nil
}
