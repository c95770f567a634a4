// Package exact implements the adaptive exact-caching baseline the study
// compares against (Section 4.6), derived from the replication algorithm of
// Wolfson, Jajodia and Huang [WJH97]: per data value, count requested reads
// r and writes w; every x accesses reevaluate, caching the value iff the
// projected cost of caching (w remote writes, w*Cvr) is below the projected
// cost of not caching (r remote reads, r*Cqr). With limited cache space,
// values with the lowest cost difference Cnc - Cc are evicted and — unlike
// the approximate-caching protocol — the source is notified, so it stops
// pushing updates for evicted values.
//
// Exact caching has no approximations, so query precision constraints are
// irrelevant: a cached value is exact and free to read; an uncached value
// must be fetched remotely no matter how loose the constraint. This is why
// the exact-caching curves in Figures 10-13 are flat in davg.
package exact

import (
	"fmt"
	"math"
	"math/rand"

	"apcache/internal/study/stats"
	"apcache/internal/workload"
)

// Config describes one exact-caching simulation run.
type Config struct {
	// NumSources is n.
	NumSources int
	// CacheSize is kappa; 0 means NumSources.
	CacheSize int
	// Cvr and Cqr are the refresh costs (remote write / remote read).
	Cvr, Cqr float64
	// X is the reevaluation window: each value's caching decision is
	// recomputed whenever its r+w reaches X. The study sweeps X from 3 to
	// 45 and reports the best.
	X int
	// Updates builds each source's update stream.
	Updates func(key int, rng *rand.Rand) workload.UpdateSource
	// Tq is the query period in seconds.
	Tq float64
	// KeysPerQuery is how many sources each query touches.
	KeysPerQuery int
	// Duration and Warmup are in seconds.
	Duration, Warmup float64
	// Seed makes the run deterministic.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumSources <= 0:
		return fmt.Errorf("exact: NumSources must be positive, got %d", c.NumSources)
	case c.CacheSize < 0 || c.CacheSize > c.NumSources:
		return fmt.Errorf("exact: CacheSize %d out of range 0..%d", c.CacheSize, c.NumSources)
	case c.Cvr < 0 || c.Cqr <= 0:
		return fmt.Errorf("exact: bad costs Cvr=%g Cqr=%g", c.Cvr, c.Cqr)
	case c.X < 1:
		return fmt.Errorf("exact: X must be >= 1, got %d", c.X)
	case c.Updates == nil:
		return fmt.Errorf("exact: Updates factory is required")
	case c.Tq <= 0:
		return fmt.Errorf("exact: Tq must be positive, got %g", c.Tq)
	case c.KeysPerQuery <= 0 || c.KeysPerQuery > c.NumSources:
		return fmt.Errorf("exact: KeysPerQuery %d out of range 1..%d", c.KeysPerQuery, c.NumSources)
	case c.Duration <= 0:
		return fmt.Errorf("exact: Duration must be positive, got %g", c.Duration)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("exact: Warmup %g out of range [0, %g)", c.Warmup, c.Duration)
	}
	return nil
}

// Result carries one run's measurements.
type Result struct {
	// CostRate is the post-warm-up average cost per second.
	CostRate float64
	// Pvr and Pqr are the measured refresh (write-propagation / remote
	// read) rates per second.
	Pvr, Pqr float64
	// Cached is the number of values cached at the end of the run.
	Cached int
	// Reevaluations counts caching-decision recomputations.
	Reevaluations int
}

// valueState is the per-value bookkeeping of the WJH97 algorithm.
type valueState struct {
	cached bool
	r, w   int // accesses since the last reevaluation
}

// benefit is the projected saving from caching: Cnc - Cc = r*Cqr - w*Cvr.
func (v *valueState) benefit(cvr, cqr float64) float64 {
	return float64(v.r)*cqr - float64(v.w)*cvr
}

// Run executes one exact-caching simulation.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	kappa := cfg.CacheSize
	if kappa == 0 {
		kappa = cfg.NumSources
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	updates := make([]workload.UpdateSource, cfg.NumSources)
	values := make([]float64, cfg.NumSources)
	states := make([]*valueState, cfg.NumSources)
	for i := range updates {
		updates[i] = cfg.Updates(i, rng)
		values[i] = updates[i].Value()
		states[i] = &valueState{}
	}
	cachedCount := 0
	meter := stats.NewCostMeter(cfg.Warmup)
	res := Result{}

	// reevaluate applies the WJH97 decision rule for key, evicting the
	// lowest-benefit resident if admission needs space.
	reevaluate := func(key int) {
		st := states[key]
		if st.r+st.w < cfg.X {
			return
		}
		res.Reevaluations++
		cc := float64(st.w) * cfg.Cvr
		cnc := float64(st.r) * cfg.Cqr
		want := cc < cnc
		switch {
		case want && !st.cached:
			if cachedCount < kappa {
				st.cached = true
				cachedCount++
			} else {
				// Evict the resident with the lowest benefit if the
				// candidate beats it; the source is notified (free).
				worst, worstB := -1, math.Inf(1)
				for k, other := range states {
					if other.cached && other.benefit(cfg.Cvr, cfg.Cqr) < worstB {
						worst, worstB = k, other.benefit(cfg.Cvr, cfg.Cqr)
					}
				}
				if worst >= 0 && st.benefit(cfg.Cvr, cfg.Cqr) > worstB {
					states[worst].cached = false
					st.cached = true
				}
			}
		case !want && st.cached:
			st.cached = false
			cachedCount--
		}
		st.r, st.w = 0, 0
	}

	// sampleKeys draws KeysPerQuery distinct keys.
	sampleKeys := func() []int {
		idx := make([]int, cfg.NumSources)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < cfg.KeysPerQuery; i++ {
			j := i + rng.Intn(cfg.NumSources-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return idx[:cfg.KeysPerQuery]
	}

	nextUpdate, nextQuery := 1.0, cfg.Tq
	for {
		now := math.Min(nextUpdate, nextQuery)
		if now > cfg.Duration {
			break
		}
		if nextUpdate <= nextQuery {
			// Update event: every source advances; a changed value counts
			// as a write and, if cached, must be propagated (cost Cvr).
			for i, u := range updates {
				v := u.Step()
				if v == values[i] {
					continue
				}
				values[i] = v
				states[i].w++
				if states[i].cached {
					meter.ValueRefresh(now, cfg.Cvr)
				}
				reevaluate(i)
			}
			nextUpdate++
		} else {
			// Query event: every touched key is a read; uncached keys are
			// fetched remotely (cost Cqr).
			for _, k := range sampleKeys() {
				states[k].r++
				if !states[k].cached {
					meter.QueryRefresh(now, cfg.Cqr)
				}
				reevaluate(k)
			}
			nextQuery += cfg.Tq
		}
	}
	meter.Tick(cfg.Duration)

	res.CostRate = meter.Rate()
	res.Pvr, res.Pqr = meter.RefreshRates()
	res.Cached = cachedCount
	return res, nil
}

// BestX sweeps X over xs and returns the lowest cost rate found with the X
// achieving it, mirroring the study's per-run tuning ("we first determined
// the best setting for parameter x ... which varied from 3 to 45").
func BestX(cfg Config, xs []int) (best Result, bestX int, err error) {
	if len(xs) == 0 {
		return Result{}, 0, fmt.Errorf("exact: empty X sweep")
	}
	best.CostRate = math.Inf(1)
	for _, x := range xs {
		c := cfg
		c.X = x
		r, runErr := Run(c)
		if runErr != nil {
			return Result{}, 0, runErr
		}
		if r.CostRate < best.CostRate {
			best, bestX = r, x
		}
	}
	return best, bestX, nil
}

// DefaultXSweep returns the study's X range, 3..45 in steps of 6.
func DefaultXSweep() []int {
	var xs []int
	for x := 3; x <= 45; x += 6 {
		xs = append(xs, x)
	}
	return xs
}
