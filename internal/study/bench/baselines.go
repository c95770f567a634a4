package bench

import (
	"math"
	"math/rand"

	"apcache/internal/core"
	"apcache/internal/study/divergence"
	"apcache/internal/study/exact"
	"apcache/internal/study/plot"
	"apcache/internal/study/policy"
	"apcache/internal/study/sim"
	"apcache/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "fig1011",
		Title: "Figures 10-11: vs adaptive exact caching (WJH97), full cache (kappa=n)",
		Paper: "ours with lambda1=lambda0 matches exact caching; lambda1=inf wins big once davg > 0",
		Run:   func(o Options) (*Report, error) { return runExactComparison(o, false) },
	})
	register(&Experiment{
		ID:    "fig1213",
		Title: "Figures 12-13: vs adaptive exact caching (WJH97), small cache (kappa<n)",
		Paper: "with limited cache the lambda1=lambda0 curve still matches exact caching",
		Run:   func(o Options) (*Report, error) { return runExactComparison(o, true) },
	})
	register(&Experiment{
		ID:    "fig1415",
		Title: "Figures 14-15: vs Divergence Caching (HSW94), stale-count approximations",
		Paper: "ours (theta'=Cvr/Cqr) modestly outperforms Divergence Caching across davg; both drop as davg grows",
		Run:   runDivergenceComparison,
	})
	register(&Experiment{
		ID:    "variants",
		Title: "Section 4.5: unsuccessful variants (uncentered, time-varying, history window)",
		Paper: "centered constant intervals win on unbiased data; uncentered/linear-growth help slightly on biased walks",
		Run:   runVariants,
	})
}

// runExactComparison regenerates Figures 10-13: cost rate vs query period
// for (a) WJH97 exact caching with its best x, (b) ours with
// lambda1=lambda0 (the exact-caching special case), and for the full-cache
// figures (c) ours with lambda1=inf at davg in {0, 100K, 500K}.
func runExactComparison(opt Options, smallCache bool) (*Report, error) {
	id := "fig1011"
	if smallCache {
		id = "fig1213"
	}
	rep := &Report{ID: id, Title: "Comparison against exact caching"}
	hosts, duration, keys := 50, 7200, 10
	if opt.Quick {
		hosts, duration, keys = 16, 1800, 5
	}
	kappa := 0 // full
	if smallCache {
		kappa = hosts * 2 / 5 // paper: 20 of 50
	}
	tr, err := netmonTrace(hosts, duration, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	tqs := []float64{0.5, 1, 2, 5}
	if opt.Quick {
		tqs = []float64{1, 5}
	}
	xSweep := exact.DefaultXSweep()
	if opt.Quick {
		xSweep = []int{9, 27}
	}

	for _, theta := range []float64{1, 4} {
		cvr, cqr := thetaCosts(theta)
		headers := []string{"Tq", "exact caching (best x)", "ours lambda1=lambda0"}
		if !smallCache {
			headers = append(headers, "ours inf davg=0", "ours inf davg=100K", "ours inf davg=500K")
		}
		tb := plot.NewTable(headers...)
		ch := &plot.Chart{
			Title:  "theta=" + plot.FormatG(theta) + " kappa=" + plot.FormatG(float64(kappaOr(kappa, hosts))) + ": cost vs Tq",
			XLabel: "query period Tq", YLabel: "cost rate",
		}
		nSeries := 2
		if !smallCache {
			nSeries = 5
		}
		curves := make([][]float64, nSeries)
		for _, tq := range tqs {
			row := []string{plot.FormatG(tq)}
			// (a) WJH97 with best x.
			ecfg := exact.Config{
				NumSources: hosts, CacheSize: kappa,
				Cvr: cvr, Cqr: cqr, X: 9,
				Updates: func(key int, rng *rand.Rand) workload.UpdateSource {
					return workload.NewPlayback(tr.Series[key])
				},
				Tq: tq, KeysPerQuery: keys,
				Duration: float64(duration), Warmup: float64(duration) / 10,
				Seed: opt.Seed + 7,
			}
			ex, _, err := exact.BestX(ecfg, xSweep)
			if err != nil {
				return nil, err
			}
			row = append(row, plot.FormatG(ex.CostRate))
			curves[0] = append(curves[0], ex.CostRate)

			// (b) ours in the exact-caching special case.
			p := netmonParams{
				theta: theta, tq: tq, alpha: 1,
				lambda0: 1 * kilo, lambda1: 1 * kilo,
				kappa:       kappa,
				constraints: workload.ConstraintDist{Avg: 100 * kilo, Sigma: 0.5},
			}
			cfg, err := netmonSimConfig(p, opt)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, plot.FormatG(res.CostRate))
			curves[1] = append(curves[1], res.CostRate)

			// (c) ours with lambda1=inf at three davg values (full cache
			// figures only).
			if !smallCache {
				for i, davg := range []float64{0, 100 * kilo, 500 * kilo} {
					p := netmonParams{
						theta: theta, tq: tq, alpha: 1,
						lambda0: 1 * kilo, lambda1: math.Inf(1),
						kappa:       kappa,
						constraints: workload.ConstraintDist{Avg: davg, Sigma: 0.5},
					}
					cfg, err := netmonSimConfig(p, opt)
					if err != nil {
						return nil, err
					}
					res, err := sim.Run(cfg)
					if err != nil {
						return nil, err
					}
					row = append(row, plot.FormatG(res.CostRate))
					curves[2+i] = append(curves[2+i], res.CostRate)
				}
			}
			tb.AddRow(row...)
		}
		names := []string{"exact caching", "ours l1=l0", "ours inf davg=0", "ours inf davg=100K", "ours inf davg=500K"}
		for i := 0; i < nSeries; i++ {
			ch.Add(names[i], tqs, curves[i])
		}
		rep.Tables = append(rep.Tables, tb)
		rep.Charts = append(rep.Charts, ch)
	}
	if smallCache {
		rep.Note("paper (Figs 12-13): with kappa<n the lambda1=lambda0 curve still tracks exact caching")
	} else {
		rep.Note("paper (Figs 10-11): lambda1=lambda0 almost precisely matches exact caching; lambda1=inf is far cheaper at davg=100K/500K")
	}
	return rep, nil
}

func kappaOr(kappa, n int) int {
	if kappa == 0 {
		return n
	}
	return kappa
}

// regimeGate implements the comparison's update process: updates arrive
// every second during "fast" phases and every fifth second during "slow"
// phases, alternating every 600 seconds with a per-key phase offset. The
// regime switching is what separates incremental adaptation (ours) from
// window-projection resets (HSW94): the projections lag each switch.
func regimeGate(now float64, key int) bool {
	phase := int(now+float64(key)*137) / 600
	if phase%2 == 0 {
		return true // fast: one update per second
	}
	return int(now)%5 == 0 // slow: one update per five seconds
}

// gatedCounter is the matching update source for the main simulator: a
// cumulative update counter that increments when the gate opens.
type gatedCounter struct {
	key int
	t   float64
	v   float64
}

func (g *gatedCounter) Value() float64 { return g.v }

func (g *gatedCounter) Step() float64 {
	g.t++
	if regimeGate(g.t, g.key) {
		g.v++
	}
	return g.v
}

// runDivergenceComparison regenerates Figures 14-15: our algorithm in
// stale-count mode vs the HSW94 Divergence Caching reconstruction, sweeping
// the average staleness constraint for Tq in {1, 5}.
func runDivergenceComparison(opt Options) (*Report, error) {
	rep := &Report{ID: "fig1415", Title: "Comparison against Divergence Caching"}
	duration := 60000.0
	if opt.Quick {
		duration = 10000
	}
	// HSW94 reasons per object; one source with comparable read and write
	// rates exposes the whole caching-policy spectrum (g=0 exact copies
	// through g=inf uncached).
	nSources := 1
	davgs := []float64{0, 2, 4, 6, 8, 10, 12, 14}
	if opt.Quick {
		davgs = []float64{0, 4, 8, 14}
	}
	for _, tq := range []float64{1, 5} {
		tb := plot.NewTable("davg", "ours (stale mode)", "Divergence Caching")
		ch := &plot.Chart{Title: "Tq=" + plot.FormatG(tq) + ": cost vs davg (stale-count)", XLabel: "davg", YLabel: "cost rate"}
		var ours, dc []float64
		for _, davg := range davgs {
			constraints := workload.ConstraintDist{Avg: davg, Sigma: 1}

			// Ours: stale-count mode through the main simulator. The
			// "value" is the cumulative update count (one update per
			// second); intervals are one-sided [v, v+W].
			lambda1 := math.Inf(1)
			if davg == 0 {
				lambda1 = 1 // paper: lambda1 = lambda0 when davg = 0
			}
			params := core.Params{
				Cvr: 1, Cqr: 2, Alpha: 1,
				Lambda0: 1, Lambda1: lambda1,
				Mode: core.ModeStaleCount,
			}
			cfg := sim.Config{
				NumSources: nSources,
				Params:     params,
				Policy: func(key int, rng *rand.Rand) core.WidthPolicy {
					return divergence.NewStalePolicy(core.NewController(params, 4, rng))
				},
				Updates: func(key int, rng *rand.Rand) workload.UpdateSource {
					// Monotonic update counter driven by the shared
					// regime-switching gate.
					return &gatedCounter{key: key}
				},
				Tq:           tq,
				QueryKinds:   []workload.AggKind{workload.Sum},
				KeysPerQuery: 1,
				Constraints:  constraints,
				Duration:     duration,
				Warmup:       duration / 10,
				Seed:         opt.Seed + 13,
				RecordKey:    -1,
			}
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}

			dcfg := divergence.Config{
				NumSources: nSources,
				Cvr:        1, Cqr: 2,
				K: 23, GMax: 200,
				Tq:          tq,
				Constraints: constraints,
				UpdateGate:  regimeGate,
				Duration:    duration,
				Warmup:      duration / 10,
				Seed:        opt.Seed + 13,
			}
			dres, err := divergence.Run(dcfg)
			if err != nil {
				return nil, err
			}
			ours = append(ours, res.CostRate)
			dc = append(dc, dres.CostRate)
			tb.AddRow(plot.FormatG(davg), plot.FormatG(res.CostRate), plot.FormatG(dres.CostRate))
		}
		ch.Add("ours", davgs, ours)
		ch.Add("divergence", davgs, dc)
		rep.Tables = append(rep.Tables, tb)
		rep.Charts = append(rep.Charts, ch)
	}
	rep.Note("paper: our algorithm shows a modest improvement over Divergence Caching (Cvr=1, Cqr=2, theta'=0.5, k=23)")
	return rep, nil
}

// runVariants regenerates the Section 4.5 findings: compare the main
// centered algorithm against the uncentered, time-varying, and
// history-window variants on unbiased and biased random walks.
func runVariants(opt Options) (*Report, error) {
	rep := &Report{ID: "variants", Title: "Section 4.5 variants"}
	duration := 100000.0
	if opt.Quick {
		duration = 15000
	}
	type variant struct {
		name   string
		policy sim.PolicyFactory
	}
	params := core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
	mkVariants := func() []variant {
		return []variant{
			{"centered (main)", nil},
			{"uncentered", func(key int, rng *rand.Rand) core.WidthPolicy {
				return policy.NewUncenteredController(params, 4, rng)
			}},
			{"history r=3", func(key int, rng *rand.Rand) core.WidthPolicy {
				return policy.NewHistoryController(params, 4, 3)
			}},
		}
	}
	for _, walk := range []struct {
		name   string
		upProb float64
	}{
		{"unbiased walk", 0.5},
		{"biased walk (p_up=0.9)", 0.9},
	} {
		tb := plot.NewTable("variant", "cost rate", "vs main %")
		var mainCost float64
		for i, v := range mkVariants() {
			cfg := sim.Config{
				NumSources:   1,
				Params:       params,
				InitialWidth: 4,
				Policy:       v.policy,
				Updates: func(key int, rng *rand.Rand) workload.UpdateSource {
					return workload.NewBiasedWalk(0, 0.5, 1.5, walk.upProb, rng)
				},
				Tq:           2,
				QueryKinds:   []workload.AggKind{workload.Sum},
				KeysPerQuery: 1,
				Constraints:  workload.ConstraintDist{Avg: 20, Sigma: 1},
				Duration:     duration,
				Warmup:       duration / 10,
				Seed:         opt.Seed + 17,
				RecordKey:    -1,
			}
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				mainCost = res.CostRate
				tb.AddRow(v.name+" ["+walk.name+"]", plot.FormatG(res.CostRate), "-")
				continue
			}
			rel := (res.CostRate - mainCost) / mainCost * 100
			tb.AddRow(v.name+" ["+walk.name+"]", plot.FormatG(res.CostRate), plot.FormatG(rel))
		}
		rep.Tables = append(rep.Tables, tb)
	}
	rep.Note("paper: on unbiased data the centered constant-interval algorithm wins; on biased walks uncentered/time-varying intervals help slightly")
	return rep, nil
}
