package bench

import (
	"math"

	"apcache/internal/core"
	"apcache/internal/study/plot"
	"apcache/internal/study/sim"
	"apcache/internal/study/stats"
	"apcache/internal/study/trace"
	"apcache/internal/workload"
)

// netmonParams bundles the knobs for one network-monitoring run.
type netmonParams struct {
	theta       float64
	tq          float64
	constraints workload.ConstraintDist
	alpha       float64
	lambda0     float64
	lambda1     float64
	kappa       int // 0 = all
	kinds       []workload.AggKind
	// size overrides (0 = use the experiment defaults)
	hosts, duration, keys int
}

// netmonSimConfig builds the Section 4.3 environment: n sources playing the
// network trace, one cache, SUM (or MAX) queries over 10 random sources.
func netmonSimConfig(p netmonParams, opt Options) (sim.Config, error) {
	hosts, duration, keys := 50, 7200, 10
	if opt.Quick {
		hosts, duration, keys = 16, 1800, 5
	}
	if p.hosts > 0 {
		hosts = p.hosts
	}
	if p.duration > 0 {
		duration = p.duration
	}
	if p.keys > 0 {
		keys = p.keys
	}
	tr, err := netmonTrace(hosts, duration, opt.Seed+101)
	if err != nil {
		return sim.Config{}, err
	}
	cvr, cqr := thetaCosts(p.theta)
	kinds := p.kinds
	if kinds == nil {
		kinds = []workload.AggKind{workload.Sum}
	}
	return sim.Config{
		NumSources: hosts,
		CacheSize:  p.kappa,
		Params: core.Params{
			Cvr: cvr, Cqr: cqr,
			Alpha:   p.alpha,
			Lambda0: p.lambda0,
			Lambda1: p.lambda1,
		},
		InitialWidth: 10000,
		Updates:      sim.PlaybackUpdates(tr.Series),
		Tq:           p.tq,
		QueryKinds:   kinds,
		KeysPerQuery: keys,
		Constraints:  p.constraints,
		Duration:     float64(duration),
		Warmup:       float64(duration) / 10,
		Seed:         opt.Seed + 7,
		RecordKey:    -1,
	}, nil
}

const kilo = 1000.0

func init() {
	register(&Experiment{
		ID:    "fig45",
		Title: "Figures 4-5: source value and cached interval over time",
		Paper: "small davg (50K) selects narrow intervals; large davg (500K) selects wide ones",
		Run:   runFig45,
	})
	register(&Experiment{
		ID:    "fig6",
		Title: "Figure 6: effect of the adaptivity parameter alpha (12 series)",
		Paper: "alpha = 1 is a good overall setting across Tq, constraint ranges, and theta",
		Run:   runFig6,
	})
	register(&Experiment{
		ID:    "fig789",
		Title: "Figures 7-9: settings of the upper threshold lambda1 vs davg, per query period",
		Paper: "lambda1=lambda0 is flat in davg and best only at davg=0; lambda1=inf wins for davg>0; small lambda1 is a compromise",
		Run:   runFig789,
	})
	register(&Experiment{
		ID:    "sigma",
		Title: "Section 4.4 in-text: sensitivity to the precision-constraint variation sigma",
		Paper: "cost difference between sigma=0 and sigma=1 is small (1.9% at davg=100K, 5.5% at 10K, <1% at 5K)",
		Run:   runSigma,
	})
	register(&Experiment{
		ID:    "maxq",
		Title: "Section 4.4/4.6 in-text: MAX queries keep lambda1=inf best even at davg=0",
		Paper: "for MAX queries, intervals eliminate candidates, so approximate caching helps even for exact answers",
		Run:   runMaxQ,
	})
}

func runFig45(opt Options) (*Report, error) {
	rep := &Report{ID: "fig45", Title: "Figures 4-5 (value and interval trace)"}
	hosts, duration := 50, 7200
	if opt.Quick {
		hosts, duration = 16, 1800
	}
	tr, err := netmonTrace(hosts, duration, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	// Pick the recorded host as in the paper: one that becomes active
	// after inactivity — choose the host with the largest single-step jump.
	recordKey := mostBurstyHost(tr)
	for _, davg := range []float64{50 * kilo, 500 * kilo} {
		p := netmonParams{
			theta: 1, tq: 1, alpha: 1,
			lambda0: 0, lambda1: math.Inf(1),
			constraints: workload.ConstraintDist{Avg: davg, Sigma: 1},
		}
		cfg, err := netmonSimConfig(p, opt)
		if err != nil {
			return nil, err
		}
		cfg.RecordKey = recordKey
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		lo, hi := chartWindow(res, cfg.Duration)
		ch := &plot.Chart{
			Title:  plot.FormatG(davg) + " davg: value (o) inside cached interval (* lo, + hi)",
			XLabel: "time (s)", YLabel: "traffic level",
			Width: 72, Height: 18,
		}
		addSeriesWindow(ch, "lo", res.Lo, lo, hi)
		addSeriesWindow(ch, "hi", res.Hi, lo, hi)
		addSeriesWindow(ch, "value", res.Value, lo, hi)
		rep.Charts = append(rep.Charts, ch)
		rep.Note("davg=%s: mean interval width %.4g (narrow for small davg, wide for large)",
			plot.FormatG(davg), res.MeanWidth.Mean())
	}
	return rep, nil
}

// mostBurstyHost returns the index of the host with the largest single-step
// value jump, a proxy for "became active after a period of inactivity".
func mostBurstyHost(tr *trace.Trace) int {
	best, bestJump := 0, 0.0
	for h := 0; h < tr.Hosts(); h++ {
		s := tr.Host(h)
		for i := 1; i < len(s); i++ {
			if j := math.Abs(s[i] - s[i-1]); j > bestJump {
				best, bestJump = h, j
			}
		}
	}
	return best
}

// chartWindow picks a 1000-second window centered on the recorded series'
// largest value movement.
func chartWindow(res sim.Result, duration float64) (lo, hi float64) {
	bestT, bestJump := duration/2, 0.0
	pts := res.Value.Points
	for i := 1; i < len(pts); i++ {
		if j := math.Abs(pts[i].V - pts[i-1].V); j > bestJump {
			bestT, bestJump = pts[i].T, j
		}
	}
	lo = math.Max(0, bestT-500)
	return lo, math.Min(duration, lo+1000)
}

func addSeriesWindow(ch *plot.Chart, name string, s stats.Series, lo, hi float64) {
	pts := s.Window(lo, hi)
	if len(pts) == 0 {
		return
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.T, p.V
	}
	ch.Add(name, xs, ys)
}

func runFig6(opt Options) (*Report, error) {
	rep := &Report{ID: "fig6", Title: "Figure 6 (adaptivity parameter alpha)"}
	alphas := []float64{0.1, 0.25, 0.5, 1, 2, 4, 10}
	if opt.Quick {
		alphas = []float64{0.25, 1, 4}
	}
	type series struct {
		theta, tq  float64
		dmin, dmax float64
	}
	var sweeps []series
	for _, theta := range []float64{1, 4} {
		for _, tq := range []float64{0.5, 1, 6} {
			for _, rng := range [][2]float64{{50 * kilo, 150 * kilo}, {0, 100 * kilo}} {
				sweeps = append(sweeps, series{theta: theta, tq: tq, dmin: rng[0], dmax: rng[1]})
			}
		}
	}
	if opt.Quick {
		sweeps = sweeps[:4]
	}
	headers := []string{"theta,Tq,dmin,dmax \\ alpha"}
	for _, a := range alphas {
		headers = append(headers, plot.FormatG(a))
	}
	tb := plot.NewTable(headers...)
	bestAlphaVotes := map[float64]int{}
	for _, s := range sweeps {
		row := []string{plot.FormatG(s.theta) + ";" + plot.FormatG(s.tq) + ";" +
			plot.FormatG(s.dmin) + ";" + plot.FormatG(s.dmax)}
		bestAlpha, bestCost := 0.0, math.Inf(1)
		for _, a := range alphas {
			p := netmonParams{
				theta: s.theta, tq: s.tq, alpha: a,
				lambda0: 0, lambda1: math.Inf(1),
				constraints: workload.FromRange(s.dmin, s.dmax),
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
			if res.CostRate < bestCost {
				bestAlpha, bestCost = a, res.CostRate
			}
		}
		bestAlphaVotes[bestAlpha]++
		tb.AddRow(row...)
	}
	rep.Tables = append(rep.Tables, tb)
	votes := ""
	for _, a := range alphas {
		if bestAlphaVotes[a] > 0 {
			votes += plot.FormatG(a) + ":" + plot.FormatG(float64(bestAlphaVotes[a])) + " "
		}
	}
	rep.Note("best-alpha votes across series: %s(paper: alpha=1 is a good overall setting)", votes)
	return rep, nil
}

func runFig789(opt Options) (*Report, error) {
	rep := &Report{ID: "fig789", Title: "Figures 7-9 (upper threshold lambda1)"}
	davgs := []float64{0, 25 * kilo, 50 * kilo, 100 * kilo, 200 * kilo, 500 * kilo}
	tqs := []float64{0.5, 1, 2}
	if opt.Quick {
		davgs = []float64{0, 50 * kilo, 500 * kilo}
		tqs = []float64{1}
	}
	lambda1s := []struct {
		name string
		val  float64
	}{
		{"lambda1=lambda0 (1K)", 1 * kilo},
		{"lambda1=2K", 2 * kilo},
		{"lambda1=inf", math.Inf(1)},
	}
	for _, tq := range tqs {
		tb := plot.NewTable(append([]string{"davg \\ setting"}, lambda1s[0].name, lambda1s[1].name, lambda1s[2].name)...)
		ch := &plot.Chart{Title: "Fig 7-9 (Tq=" + plot.FormatG(tq) + "): cost vs davg", XLabel: "davg", YLabel: "cost rate"}
		curves := make([][]float64, len(lambda1s))
		for _, davg := range davgs {
			row := []string{plot.FormatG(davg)}
			for i, l1 := range lambda1s {
				p := netmonParams{
					theta: 1, tq: tq, alpha: 1,
					lambda0:     1 * kilo,
					lambda1:     l1.val,
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
				curves[i] = append(curves[i], res.CostRate)
			}
			tb.AddRow(row...)
		}
		for i, l1 := range lambda1s {
			ch.Add(l1.name, davgs, curves[i])
		}
		rep.Tables = append(rep.Tables, tb)
		rep.Charts = append(rep.Charts, ch)
	}
	rep.Note("paper: lambda1=lambda0 is flat in davg; lambda1=inf dominates once davg is large; for mixed workloads use lambda1=inf")
	return rep, nil
}

func runSigma(opt Options) (*Report, error) {
	rep := &Report{ID: "sigma", Title: "Section 4.4 (sigma sensitivity)"}
	tb := plot.NewTable("davg", "cost sigma=0", "cost sigma=1", "diff %")
	davgs := []float64{5 * kilo, 10 * kilo, 100 * kilo}
	if opt.Quick {
		davgs = []float64{10 * kilo, 100 * kilo}
	}
	for _, davg := range davgs {
		var costs [2]float64
		for i, sg := range []float64{0, 1} {
			p := netmonParams{
				theta: 1, tq: 1, alpha: 1,
				lambda0: 1 * kilo, lambda1: math.Inf(1),
				constraints: workload.ConstraintDist{Avg: davg, Sigma: sg},
			}
			cfg, err := netmonSimConfig(p, opt)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			costs[i] = res.CostRate
		}
		diff := (costs[1] - costs[0]) / costs[0] * 100
		tb.AddRow(plot.FormatG(davg), plot.FormatG(costs[0]), plot.FormatG(costs[1]),
			plot.FormatG(diff))
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("paper: 1.9%% at davg=100K, 5.5%% at 10K, <1%% at 5K — degradation from wide constraint distributions is small")
	return rep, nil
}

func runMaxQ(opt Options) (*Report, error) {
	rep := &Report{ID: "maxq", Title: "MAX queries: lambda1 settings at davg=0 and beyond"}
	tb := plot.NewTable("davg", "lambda1=lambda0", "lambda1=inf")
	davgs := []float64{0, 50 * kilo, 500 * kilo}
	// Candidate elimination needs the paper's full population skew: even
	// in quick mode, keep 40 hosts and 10 keys per query (shorter run).
	hosts, duration, keys := 0, 0, 0
	if opt.Quick {
		hosts, duration, keys = 40, 2400, 10
	}
	for _, davg := range davgs {
		var row []string
		row = append(row, plot.FormatG(davg))
		for _, l1 := range []float64{1 * kilo, math.Inf(1)} {
			p := netmonParams{
				theta: 1, tq: 1, alpha: 1,
				lambda0: 1 * kilo, lambda1: l1,
				constraints: workload.ConstraintDist{Avg: davg, Sigma: 0.5},
				kinds:       []workload.AggKind{workload.Max},
				hosts:       hosts, duration: duration, keys: keys,
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
		}
		tb.AddRow(row...)
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("paper: for MAX queries lambda1=inf gives the best performance for all davg including 0, because intervals eliminate candidates")
	return rep, nil
}
