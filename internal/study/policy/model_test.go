package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apcache/internal/core"
)

// fig2Model reproduces the Figure 2 setting: K1 = 1, K2 = 1/200, theta = 1
// ("values set based roughly on a query period of 10 seconds and an average
// precision constraint of 10").
func fig2Model() Model {
	return Model{K1: 1, K2: 1.0 / 200, Cvr: 1, Cqr: 2}
}

func TestOptimalWidthFormula(t *testing.T) {
	m := fig2Model()
	want := math.Cbrt(1 * 1 / (1.0 / 200)) // (theta*K1/K2)^(1/3) = 200^(1/3)
	if got := m.OptimalWidth(); math.Abs(got-want) > 1e-12 {
		t.Errorf("OptimalWidth = %g, want %g", got, want)
	}
}

func TestOptimalWidthIsMinimum(t *testing.T) {
	m := fig2Model()
	wopt := m.OptimalWidth()
	best := m.Omega(wopt)
	for w := 0.5; w <= 40; w += 0.25 {
		if m.Omega(w) < best-1e-12 {
			t.Fatalf("Omega(%g) = %g below Omega(W*) = %g", w, m.Omega(w), best)
		}
	}
}

func TestCrossoverEqualsOptimum(t *testing.T) {
	// Section 3: W* is exactly where theta*Pvr = Pqr.
	for _, theta := range []float64{0.5, 1, 2, 4} {
		m := Model{K1: 1, K2: 1.0 / 200, Cvr: theta, Cqr: 2}
		w := m.CrossoverWidth()
		if math.Abs(w-m.OptimalWidth()) > 1e-12 {
			t.Errorf("theta=%g: crossover %g != optimum %g", theta, w, m.OptimalWidth())
		}
		lhs := m.Theta() * m.Pvr(w)
		rhs := m.Pqr(w)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Errorf("theta=%g: theta*Pvr(W*)=%g != Pqr(W*)=%g", theta, lhs, rhs)
		}
	}
}

func TestPvrPqrShapes(t *testing.T) {
	m := fig2Model()
	if m.Pvr(0) != 1 {
		t.Errorf("Pvr(0) = %g, want 1", m.Pvr(0))
	}
	if m.Pvr(math.Inf(1)) != 0 {
		t.Errorf("Pvr(Inf) = %g, want 0", m.Pvr(math.Inf(1)))
	}
	if m.Pqr(math.Inf(1)) != 1 {
		t.Errorf("Pqr(Inf) = %g, want 1", m.Pqr(math.Inf(1)))
	}
	if m.Pqr(0) != 0 {
		t.Errorf("Pqr(0) = %g, want 0", m.Pqr(0))
	}
	// Monotonicity.
	prevV, prevQ := m.Pvr(1.0), m.Pqr(1.0)
	for w := 2.0; w < 100; w++ {
		v, q := m.Pvr(w), m.Pqr(w)
		if v > prevV {
			t.Fatalf("Pvr increased at w=%g", w)
		}
		if q < prevQ {
			t.Fatalf("Pqr decreased at w=%g", w)
		}
		prevV, prevQ = v, q
	}
}

func TestProbabilitiesClamped(t *testing.T) {
	m := Model{K1: 1e6, K2: 1e6, Cvr: 1, Cqr: 2}
	if got := m.Pvr(0.001); got != 1 {
		t.Errorf("Pvr not clamped: %g", got)
	}
	if got := m.Pqr(1e9); got != 1 {
		t.Errorf("Pqr not clamped: %g", got)
	}
}

func TestK2FromWorkload(t *testing.T) {
	// Appendix A: K2 = 1/(Tq*deltaMax). Figure 2 caption: Tq=10, davg=10
	// (deltaMax=20) gives K2 = 1/200.
	if got := K2FromWorkload(10, 20); math.Abs(got-1.0/200) > 1e-15 {
		t.Errorf("K2FromWorkload(10, 20) = %g, want 1/200", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("K2FromWorkload(0, 1) did not panic")
		}
	}()
	K2FromWorkload(0, 1)
}

func TestK1FromStep(t *testing.T) {
	if got := K1FromStep(1); got != 4 {
		t.Errorf("K1FromStep(1) = %g, want 4 (Chebyshev (2s/W)^2 numerator)", got)
	}
}

func TestCurve(t *testing.T) {
	m := fig2Model()
	ws, pvr, pqr, omega := m.Curve(2, 20, 10)
	if len(ws) != 10 || len(pvr) != 10 || len(pqr) != 10 || len(omega) != 10 {
		t.Fatalf("curve lengths wrong")
	}
	if ws[0] != 2 || ws[9] != 20 {
		t.Errorf("curve endpoints: %g..%g, want 2..20", ws[0], ws[9])
	}
	for i, w := range ws {
		if math.Abs(omega[i]-(m.Cvr*pvr[i]+m.Cqr*pqr[i])) > 1e-12 {
			t.Errorf("omega[%d] inconsistent at w=%g", i, w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Curve with n=1 did not panic")
		}
	}()
	m.Curve(0, 1, 1)
}

func TestStaleModelOptimum(t *testing.T) {
	m := StaleModel{UpdateRate: 1, K2: 0.05, Cvr: 1, Cqr: 2}
	wopt := m.OptimalWidth()
	best := m.Omega(wopt)
	for w := 0.25; w < 50; w += 0.25 {
		if m.Omega(w) < best-1e-12 {
			t.Fatalf("stale Omega(%g)=%g below optimum %g", w, m.Omega(w), best)
		}
	}
	// At the stale optimum theta'*Pvr = Pqr with theta' = Cvr/Cqr.
	lhs := m.Cvr / m.Cqr * m.Pvr(wopt)
	rhs := m.Pqr(wopt)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("stale crossover mismatch: %g vs %g", lhs, rhs)
	}
}

func TestStaleModelEdges(t *testing.T) {
	m := StaleModel{UpdateRate: 0.5, K2: 0.05, Cvr: 1, Cqr: 2}
	if got := m.Pvr(0); got != 0.5 {
		t.Errorf("stale Pvr(0) = %g, want update rate 0.5", got)
	}
	if got := m.Pvr(math.Inf(1)); got != 0 {
		t.Errorf("stale Pvr(Inf) = %g, want 0", got)
	}
	if got := m.Pqr(math.Inf(1)); got != 1 {
		t.Errorf("stale Pqr(Inf) = %g, want 1", got)
	}
}

func TestQuickOmegaNonNegative(t *testing.T) {
	f := func(w float64) bool {
		w = math.Abs(w)
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		m := fig2Model()
		om := m.Omega(w)
		return om >= 0 && !math.IsNaN(om)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOptimalBeatsNeighbours(t *testing.T) {
	f := func(k1raw, k2raw uint16) bool {
		k1 := 0.01 + float64(k1raw)/100
		k2 := 0.0001 + float64(k2raw)/1e6
		m := Model{K1: k1, K2: k2, Cvr: 1, Cqr: 2}
		w := m.OptimalWidth()
		if w <= 0 {
			return false
		}
		// Only meaningful where the probabilities are unclamped at the
		// optimum and at both probe points.
		eps := w * 0.05
		for _, probe := range []float64{w - eps, w, w + eps} {
			if m.K1/(probe*probe) >= 1 || m.K2*probe >= 1 {
				return true
			}
		}
		tol := 1e-9 * m.Omega(w)
		return m.Omega(w) <= m.Omega(w-eps)+tol && m.Omega(w) <= m.Omega(w+eps)+tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConvergenceToOptimum drives a controller with refresh events sampled
// from the analytical model and checks the width settles near the model's
// optimum. This is a direct check of the Section 3 argument: balancing
// theta*Pvr against Pqr finds W*.
func TestConvergenceToOptimum(t *testing.T) {
	for _, theta := range []float64{1, 4} {
		model := Model{K1: 1, K2: 1.0 / 200, Cvr: theta, Cqr: 2}
		p := core.Params{Cvr: theta, Cqr: 2, Alpha: 0.05, Lambda1: math.Inf(1)}
		rng := rand.New(rand.NewSource(7))
		c := core.NewController(p, 1, rng)
		// Simulate: at each step a VIR occurs with model.Pvr, a QIR with
		// model.Pqr, evaluated at the current width.
		var sum float64
		var n int
		for step := 0; step < 400000; step++ {
			w := c.Width()
			if rng.Float64() < model.Pvr(w) {
				c.OnRefresh(core.ValueInitiated)
			}
			if rng.Float64() < model.Pqr(w) {
				c.OnRefresh(core.QueryInitiated)
			}
			if step > 200000 {
				sum += c.Width()
				n++
			}
		}
		avg := sum / float64(n)
		opt := model.OptimalWidth()
		if math.Abs(avg-opt)/opt > 0.25 {
			t.Errorf("theta=%g: converged width %.3g, optimum %.3g (>25%% off)", theta, avg, opt)
		}
	}
}
