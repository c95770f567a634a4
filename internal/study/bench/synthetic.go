package bench

import (
	"fmt"
	"math"

	"apcache/internal/core"
	"apcache/internal/study/plot"
	"apcache/internal/study/policy"
	"apcache/internal/study/sim"
	"apcache/internal/workload"
)

// walkSimConfig is the Section 4.2 steady-state setting: one source whose
// value performs a random walk with step uniform on [0.5, 1.5], queried
// every Tq seconds with davg and sigma as given.
func walkSimConfig(theta, tq, davg, sigma float64, opt Options) sim.Config {
	cvr, cqr := thetaCosts(theta)
	duration := 200000.0
	if opt.Quick {
		duration = 20000
	}
	return sim.Config{
		NumSources:   1,
		Params:       core.Params{Cvr: cvr, Cqr: cqr, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth: 4,
		Updates:      sim.WalkUpdates(0.5, 1.5),
		Tq:           tq,
		QueryKinds:   []workload.AggKind{workload.Sum},
		KeysPerQuery: 1,
		Constraints:  workload.ConstraintDist{Avg: davg, Sigma: sigma},
		Duration:     duration,
		Warmup:       duration / 10,
		Seed:         opt.Seed + 11,
		RecordKey:    -1,
	}
}

func init() {
	register(&Experiment{
		ID:    "fig2",
		Title: "Figure 2: analytical cost rate and refresh probabilities vs interval width",
		Paper: "Omega is V-shaped with minimum W* exactly where Pvr and Pqr cross (K1=1, K2=1/200, theta=1)",
		Run:   runFig2,
	})
	register(&Experiment{
		ID:    "fig3",
		Title: "Figure 3: measured cost rate and refresh probabilities vs fixed interval width",
		Paper: "measured Pvr ~ 1/W^2, Pqr ~ W; minimum cost where they cross; adaptive run converges near W*",
		Run:   runFig3,
	})
	register(&Experiment{
		ID:    "conv",
		Title: "Section 4.2 in-text: adaptive convergence across (Tq, davg, theta)",
		Paper: "adaptive performance within ~5% of the best fixed width in all 8 scenarios",
		Run:   runConvergence,
	})
}

func runFig2(opt Options) (*Report, error) {
	m := policy.Model{K1: 1, K2: 1.0 / 200, Cvr: 1, Cqr: 2}
	ws, pvr, pqr, omega := m.Curve(2, 20, 19)
	rep := &Report{ID: "fig2", Title: "Figure 2 (analytical)"}
	tb := plot.NewTable("W", "Pvr", "Pqr", "Omega")
	for i := range ws {
		tb.AddRow(plot.FormatG(ws[i]), plot.FormatG(pvr[i]), plot.FormatG(pqr[i]), plot.FormatG(omega[i]))
	}
	rep.Tables = append(rep.Tables, tb)
	ch := &plot.Chart{Title: "Fig 2: cost rate and refresh probabilities (theta=1)", XLabel: "interval width W", YLabel: "probability / cost rate"}
	ch.Add("Pvr", ws, pvr)
	ch.Add("Pqr", ws, pqr)
	ch.Add("Omega", ws, omega)
	rep.Charts = append(rep.Charts, ch)

	wopt := m.OptimalWidth()
	rep.Note("analytical W* = %.4g; crossover width = %.4g (identical by construction)", wopt, m.CrossoverWidth())
	rep.Note("Omega(W*) = %.4g", m.Omega(wopt))
	return rep, nil
}

func runFig3(opt Options) (*Report, error) {
	rep := &Report{ID: "fig3", Title: "Figure 3 (measured, random walk)"}
	tb := plot.NewTable("W", "Pvr", "Pqr", "Omega")
	var ws, pvrs, pqrs, omegas []float64
	bestW, bestCost := 0.0, math.Inf(1)
	for w := 1.0; w <= 10; w++ {
		cfg := walkSimConfig(1, 2, 20, 1, opt)
		cfg.Policy = sim.FixedWidthPolicy(w)
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
		pvrs = append(pvrs, res.Pvr)
		pqrs = append(pqrs, res.Pqr)
		omegas = append(omegas, res.CostRate)
		tb.AddRow(plot.FormatG(w), plot.FormatG(res.Pvr), plot.FormatG(res.Pqr), plot.FormatG(res.CostRate))
		if res.CostRate < bestCost {
			bestW, bestCost = w, res.CostRate
		}
	}
	rep.Tables = append(rep.Tables, tb)
	ch := &plot.Chart{Title: "Fig 3: measured rates vs fixed width (theta=1, Tq=2, davg=20)", XLabel: "interval width W", YLabel: "rate per second"}
	ch.Add("Pvr", ws, pvrs)
	ch.Add("Pqr", ws, pqrs)
	ch.Add("Omega", ws, omegas)
	rep.Charts = append(rep.Charts, ch)

	// Adaptive run on the same workload: small alpha for the steady-state
	// convergence claim, alpha=1 for the recommended dynamic setting.
	for _, alpha := range []float64{0.1, 1} {
		cfg := walkSimConfig(1, 2, 20, 1, opt)
		cfg.Params.Alpha = alpha
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		gap := (res.CostRate - bestCost) / bestCost * 100
		rep.Note("adaptive alpha=%.2g: mean width %.3g (best fixed W=%g), cost %.4g = best fixed %+.1f%%",
			alpha, res.MeanWidth.Mean(), bestW, res.CostRate, gap)
	}
	rep.Note("paper: adaptive converged to W=3.11, within 1%% of optimal")
	return rep, nil
}

func runConvergence(opt Options) (*Report, error) {
	rep := &Report{ID: "conv", Title: "Section 4.2: convergence across scenarios"}
	tb := plot.NewTable("Tq", "davg", "theta", "best fixed W", "best fixed cost", "adaptive cost", "gap %")
	for _, tq := range []float64{1, 2} {
		for _, davg := range []float64{10, 20} {
			for _, theta := range []float64{1, 4} {
				bestW, bestCost := 0.0, math.Inf(1)
				for w := 0.5; w <= 12; w += 0.5 {
					cfg := walkSimConfig(theta, tq, davg, 1, opt)
					cfg.Policy = sim.FixedWidthPolicy(w)
					res, err := sim.Run(cfg)
					if err != nil {
						return nil, err
					}
					if res.CostRate < bestCost {
						bestW, bestCost = w, res.CostRate
					}
				}
				cfg := walkSimConfig(theta, tq, davg, 1, opt)
				cfg.Params.Alpha = 0.1
				res, err := sim.Run(cfg)
				if err != nil {
					return nil, err
				}
				gap := (res.CostRate - bestCost) / bestCost * 100
				tb.AddRow(plot.FormatG(tq), plot.FormatG(davg), plot.FormatG(theta),
					plot.FormatG(bestW), plot.FormatG(bestCost), plot.FormatG(res.CostRate),
					fmt.Sprintf("%+.1f", gap))
			}
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("paper: within 5%% of optimal in all scenarios (steady state)")
	return rep, nil
}
