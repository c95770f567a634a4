package divergence

import (
	"math"
	"testing"

	"apcache/internal/core"
	"apcache/internal/workload"
)

func baseConfig() Config {
	return Config{
		NumSources:  5,
		Cvr:         1,
		Cqr:         2,
		K:           23,
		GMax:        200,
		Tq:          1,
		Constraints: workload.ConstraintDist{Avg: 8, Sigma: 1},
		Duration:    3000,
		Warmup:      300,
		Seed:        1,
	}
}

func TestRunProducesActivity(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CostRate <= 0 {
		t.Errorf("CostRate = %g", res.CostRate)
	}
	if len(res.FinalLimits) != 5 {
		t.Errorf("FinalLimits = %v", res.FinalLimits)
	}
	for _, g := range res.FinalLimits {
		if g < 0 || g > 200 {
			t.Errorf("limit %d out of [0, 200]", g)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Run(baseConfig())
	b, _ := Run(baseConfig())
	if a.CostRate != b.CostRate {
		t.Errorf("same-seed runs differ: %g vs %g", a.CostRate, b.CostRate)
	}
}

func TestLooseConstraintsLowerCost(t *testing.T) {
	tight := baseConfig()
	tight.Constraints = workload.ConstraintDist{Avg: 1, Sigma: 1}
	loose := baseConfig()
	loose.Constraints = workload.ConstraintDist{Avg: 14, Sigma: 1}
	rTight, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	rLoose, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if rLoose.CostRate >= rTight.CostRate {
		t.Errorf("loose constraints cost %g >= tight %g", rLoose.CostRate, rTight.CostRate)
	}
}

func TestLimitsGrowWithLooseConstraints(t *testing.T) {
	loose := baseConfig()
	loose.Constraints = workload.ConstraintDist{Avg: 14, Sigma: 0}
	res, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	// With every constraint at 14, a limit of 14 never trips a QIR and
	// amortizes VIRs; limits should sit well above 1.
	for i, g := range res.FinalLimits {
		if g < 5 {
			t.Errorf("source %d limit %d, want >= 5 under loose constraints", i, g)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumSources = 0 },
		func(c *Config) { c.Cqr = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.GMax = 0 },
		func(c *Config) { c.Tq = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Warmup = 99999 },
	}
	for i, mut := range mutations {
		cfg := baseConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted mutation %d", i)
		}
	}
}

func TestWindow(t *testing.T) {
	w := newWindow(3)
	if w.full() {
		t.Fatalf("empty window full")
	}
	w.add(10)
	w.add(20)
	w.add(30)
	if !w.full() {
		t.Fatalf("filled window not full")
	}
	if got := w.span(); got != 20 {
		t.Errorf("span = %g, want 20", got)
	}
	if got := w.rate(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("rate = %g, want 0.1 (2 intervals over 20)", got)
	}
	// Ring overwrite: adding 40 drops 10.
	w.add(40)
	if got := w.span(); got != 20 {
		t.Errorf("span after wrap = %g, want 20", got)
	}
}

func TestWindowFractionBelow(t *testing.T) {
	w := newWindow(4)
	if got := w.fractionBelow(5); got != 0.5 {
		t.Errorf("empty-window prior = %g, want 0.5", got)
	}
	for _, v := range []float64{1, 2, 3, 4} {
		w.add(v)
	}
	if got := w.fractionBelow(3); got != 0.5 {
		t.Errorf("fractionBelow(3) = %g, want 0.5", got)
	}
	if got := w.fractionBelow(100); got != 1 {
		t.Errorf("fractionBelow(100) = %g, want 1", got)
	}
}

func TestWindowDegenerate(t *testing.T) {
	w := newWindow(3)
	w.add(5)
	if w.span() != 0 || w.rate() != 0 {
		t.Errorf("single-sample window span/rate = %g/%g", w.span(), w.rate())
	}
}

func TestChooseLimitBalances(t *testing.T) {
	// High write rate, low read rate, loose constraints: big limit.
	cw := newWindow(8)
	for i := 0; i < 8; i++ {
		cw.add(50) // all constraints at 50
	}
	g := chooseLimit(1, 2, 1.0, 0.01, cw, 200)
	if g < 40 {
		t.Errorf("limit %d, want >= 40 under loose constraints", g)
	}
	// Tight constraints at 1: any g >= 2 trips every read; with reads
	// dominating, keep g at most 1.
	tight := newWindow(8)
	for i := 0; i < 8; i++ {
		tight.add(1)
	}
	g = chooseLimit(1, 2, 0.01, 1.0, tight, 200)
	if g > 1 {
		t.Errorf("limit %d, want <= 1 under tight constraints", g)
	}
	// Write-heavy with exact constraints: exact caching (g = 0) wins.
	exactC := newWindow(4)
	for i := 0; i < 4; i++ {
		exactC.add(0)
	}
	g = chooseLimit(1, 2, 0.2, 1.0, exactC, 200)
	if g != 0 {
		t.Errorf("limit %d, want 0 (exact caching) for exact constraints with busy reads", g)
	}
}

// alwaysFire forces every probabilistic adjustment.
type alwaysFire struct{}

func (alwaysFire) Float64() float64 { return 0 }

func staleParams() core.Params {
	return core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 1, Lambda1: math.Inf(1), Mode: core.ModeStaleCount}
}

func TestStalePolicyIntervalShape(t *testing.T) {
	p := NewStalePolicy(core.NewController(staleParams(), 4, alwaysFire{}))
	iv := p.NewInterval(100)
	if iv.Lo != 100 || iv.Hi != 104 {
		t.Errorf("interval %v, want [100, 104]", iv)
	}
}

func TestStalePolicyUnboundedAboveOnly(t *testing.T) {
	params := staleParams()
	params.Lambda1 = 2
	p := NewStalePolicy(core.NewController(params, 10, alwaysFire{}))
	iv := p.NewInterval(100)
	if iv.Lo != 100 || !math.IsInf(iv.Hi, 1) {
		t.Errorf("interval %v, want [100, +Inf)", iv)
	}
}

func TestStalePolicyThetaPrime(t *testing.T) {
	// theta' = Cvr/Cqr = 0.5: grow probability 0.5, shrink always.
	p := staleParams()
	if got := p.GrowProbability(); got != 0.5 {
		t.Errorf("grow probability %g, want 0.5", got)
	}
	if got := p.ShrinkProbability(); got != 1 {
		t.Errorf("shrink probability %g, want 1", got)
	}
}

func TestStalePolicyRefresh(t *testing.T) {
	p := NewStalePolicy(core.NewController(staleParams(), 4, alwaysFire{}))
	iv := p.RefreshInterval(core.QueryInitiated, false, 10)
	if iv.Hi-iv.Lo != 2 {
		t.Errorf("width after QIR = %g, want 2", iv.Hi-iv.Lo)
	}
	if p.Width() != 2 {
		t.Errorf("width %g, want 2", p.Width())
	}
}

func TestStalePolicyRequiresStaleMode(t *testing.T) {
	params := staleParams()
	params.Mode = core.ModeInterval
	defer func() {
		if recover() == nil {
			t.Fatalf("interval-mode controller accepted")
		}
	}()
	NewStalePolicy(core.NewController(params, 1, alwaysFire{}))
}
