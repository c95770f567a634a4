// Package sim implements the discrete-event simulator of Section 4.1: n
// data sources each hosting one exact numeric value, one cache holding up to
// kappa interval approximations, updates applied every time unit (one
// second), and bounded-aggregate queries executed every Tq seconds. It
// measures the average cost rate Omega with warm-up discard, the refresh
// rates standing in for Pvr and Pqr, and optionally records the
// value-and-interval time series behind Figures 4 and 5.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"apcache/internal/cache"
	"apcache/internal/core"
	"apcache/internal/query"
	"apcache/internal/source"
	"apcache/internal/study/policy"
	"apcache/internal/study/stats"
	"apcache/internal/workload"
)

// PolicyFactory builds a width policy for source key; rng is the
// simulation's RNG, shared so runs are reproducible by seed.
type PolicyFactory func(key int, rng *rand.Rand) core.WidthPolicy

// UpdateFactory builds source key's update stream.
type UpdateFactory func(key int, rng *rand.Rand) workload.UpdateSource

// Config describes one simulation run.
type Config struct {
	// NumSources is n, the number of source values.
	NumSources int
	// CacheSize is kappa; 0 means "as large as NumSources".
	CacheSize int
	// Params configures the adaptive controller (ignored when Policy is
	// set); Cvr/Cqr also define the refresh costs charged by the meter.
	Params core.Params
	// InitialWidth seeds every controller.
	InitialWidth float64
	// Policy optionally overrides the adaptive controller (fixed-width
	// sweeps, variants, baselines implementing core.WidthPolicy).
	Policy PolicyFactory
	// Updates builds each source's update stream. Required.
	Updates UpdateFactory
	// Tq is the query period in seconds.
	Tq float64
	// QueryKinds are the aggregate types to draw from.
	QueryKinds []workload.AggKind
	// KeysPerQuery is how many sources each query touches.
	KeysPerQuery int
	// Constraints is the precision-constraint distribution.
	Constraints workload.ConstraintDist
	// Duration is the simulated time in seconds.
	Duration float64
	// Warmup is the initial period excluded from measurements.
	Warmup float64
	// Seed makes the run deterministic.
	Seed int64
	// RecordKey, if >= 0, records source value and cached interval bounds
	// each second for that key (Figures 4-5).
	RecordKey int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumSources <= 0:
		return fmt.Errorf("sim: NumSources must be positive, got %d", c.NumSources)
	case c.CacheSize < 0 || c.CacheSize > c.NumSources:
		return fmt.Errorf("sim: CacheSize %d out of range 0..%d", c.CacheSize, c.NumSources)
	case c.Updates == nil:
		return fmt.Errorf("sim: Updates factory is required")
	case c.Tq <= 0:
		return fmt.Errorf("sim: Tq must be positive, got %g", c.Tq)
	case len(c.QueryKinds) == 0:
		return fmt.Errorf("sim: QueryKinds is empty")
	case c.KeysPerQuery <= 0 || c.KeysPerQuery > c.NumSources:
		return fmt.Errorf("sim: KeysPerQuery %d out of range 1..%d", c.KeysPerQuery, c.NumSources)
	case c.Duration <= 0:
		return fmt.Errorf("sim: Duration must be positive, got %g", c.Duration)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("sim: Warmup %g out of range [0, %g)", c.Warmup, c.Duration)
	case c.InitialWidth < 0 || math.IsNaN(c.InitialWidth):
		return fmt.Errorf("sim: bad InitialWidth %g", c.InitialWidth)
	}
	// Params is always validated: even when Policy overrides the
	// controller, Params.Cvr and Params.Cqr define the costs the meter
	// charges.
	return c.Params.Validate()
}

// Result carries one run's measurements.
type Result struct {
	// CostRate is Omega, the average post-warm-up cost per second.
	CostRate float64
	// Pvr and Pqr are the measured refresh rates per second.
	Pvr, Pqr float64
	// ValueRefreshes and QueryRefreshes are post-warm-up counts.
	ValueRefreshes, QueryRefreshes int
	// Queries is the number of queries executed post-warm-up.
	Queries int
	// CacheStats snapshots the cache counters.
	CacheStats cache.Stats
	// MeanWidth summarizes the post-warm-up original widths across
	// subscribed policies, sampled each second.
	MeanWidth stats.Summary
	// Value, Lo and Hi are the recorded series for RecordKey (empty when
	// recording is disabled).
	Value, Lo, Hi stats.Series
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	kappa := cfg.CacheSize
	if kappa == 0 {
		kappa = cfg.NumSources
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	policy := cfg.Policy
	if policy == nil {
		policy = func(key int, rng *rand.Rand) core.WidthPolicy {
			return core.NewController(cfg.Params, cfg.InitialWidth, rng)
		}
	}
	src := source.New(func(cacheID, key int) core.WidthPolicy {
		return policy(key, rng)
	})
	updates := make([]workload.UpdateSource, cfg.NumSources)
	for i := 0; i < cfg.NumSources; i++ {
		updates[i] = cfg.Updates(i, rng)
		src.SetInitial(i, updates[i].Value())
	}

	store := cache.NewWidestFirst(kappa)
	qgen := &workload.QueryGen{
		Kinds:        cfg.QueryKinds,
		NumSources:   cfg.NumSources,
		KeysPerQuery: cfg.KeysPerQuery,
		Constraints:  cfg.Constraints,
		RNG:          rng,
	}
	if err := qgen.Validate(); err != nil {
		return Result{}, err
	}

	meter := stats.NewCostMeter(cfg.Warmup)
	res := Result{}
	const cacheID = 0

	install := func(r source.Refresh) {
		store.Put(r.Key, r.Interval, r.OriginalWidth)
	}

	var sched scheduler
	sched.schedule(1, evUpdate)
	sched.schedule(cfg.Tq, evQuery)

	for {
		ev, ok := sched.next()
		if !ok || ev.t > cfg.Duration {
			break
		}
		now := ev.t
		switch ev.kind {
		case evUpdate:
			for i, u := range updates {
				v := u.Step()
				for _, r := range src.Set(i, v) {
					meter.ValueRefresh(now, cfg.Params.Cvr)
					install(r)
				}
			}
			if now >= cfg.Warmup {
				var widthSum float64
				var widthN int
				for i := 0; i < cfg.NumSources; i++ {
					if p, ok := src.PolicyFor(cacheID, i); ok {
						widthSum += p.Width()
						widthN++
					}
				}
				if widthN > 0 {
					res.MeanWidth.Add(widthSum / float64(widthN))
				}
			}
			if cfg.RecordKey >= 0 {
				v, _ := src.Value(cfg.RecordKey)
				res.Value.Append(now, v)
				if iv, ok := store.Peek(cfg.RecordKey); ok {
					res.Lo.Append(now, iv.Lo)
					res.Hi.Append(now, iv.Hi)
				}
			}
			sched.schedule(now+1, evUpdate)
		case evQuery:
			q := qgen.Next()
			query.Execute(q, store.Get, func(key int) float64 {
				r := src.Read(cacheID, key)
				meter.QueryRefresh(now, cfg.Params.Cqr)
				install(r)
				return r.Value
			})
			if now >= cfg.Warmup {
				res.Queries++
			}
			sched.schedule(now+cfg.Tq, evQuery)
		}
	}
	meter.Tick(cfg.Duration)

	res.CostRate = meter.Rate()
	res.Pvr, res.Pqr = meter.RefreshRates()
	res.ValueRefreshes = meter.ValueRefreshes()
	res.QueryRefreshes = meter.QueryRefreshes()
	res.CacheStats = store.Stats()
	res.Value.Name = "value"
	res.Lo.Name = "lo"
	res.Hi.Name = "hi"
	return res, nil
}

// WalkUpdates returns an UpdateFactory producing the Section 4.2 random
// walks: start 0, step uniform on [lo, hi].
func WalkUpdates(lo, hi float64) UpdateFactory {
	return func(key int, rng *rand.Rand) workload.UpdateSource {
		return workload.NewRandomWalk(0, lo, hi, rng)
	}
}

// PlaybackUpdates returns an UpdateFactory replaying series[key].
func PlaybackUpdates(series [][]float64) UpdateFactory {
	return func(key int, rng *rand.Rand) workload.UpdateSource {
		return workload.NewPlayback(series[key])
	}
}

// FixedWidthPolicy pins every approximation at width w (the Figure 3 sweep).
func FixedWidthPolicy(w float64) PolicyFactory {
	return func(key int, rng *rand.Rand) core.WidthPolicy {
		return policy.NewFixedController(w)
	}
}
