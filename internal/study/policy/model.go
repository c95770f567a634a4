package policy

import "math"

// This file implements the Appendix A analytical model. For a value
// performing a one-dimensional random walk with step size s, queried every Tq
// time steps with precision constraints uniform on [0, deltaMax], the
// per-time-step refresh probabilities for a cached interval of width W are
//
//	Pvr(W) = K1 / W^2        (value-initiated; Chebyshev bound on the walk)
//	Pqr(W) = K2 * W          (query-initiated; constraint below W)
//
// with K2 = 1/(Tq*deltaMax). The expected cost rate is
// Omega(W) = Cvr*Pvr(W) + Cqr*Pqr(W), minimized at
// W* = (theta*K1/K2)^(1/3) with theta = 2*Cvr/Cqr — exactly the width at
// which theta*Pvr = Pqr, which is the condition the adaptive controller
// drives the system toward.

// Model carries the analytical model parameters.
type Model struct {
	// K1 scales the value-initiated refresh probability K1/W^2. It depends
	// on the update step distribution.
	K1 float64
	// K2 scales the query-initiated refresh probability K2*W. For the
	// Appendix A workload K2 = 1/(Tq*deltaMax).
	K2 float64
	// Cvr and Cqr are the refresh costs.
	Cvr float64
	// Cqr is the query-initiated refresh cost.
	Cqr float64
}

// K2FromWorkload derives K2 from the query period and the maximum precision
// constraint: a query arrives with probability 1/Tq per step and trips a
// refresh with probability W/deltaMax.
func K2FromWorkload(tq, deltaMax float64) float64 {
	if tq <= 0 || deltaMax <= 0 {
		panic("policy: Tq and deltaMax must be positive")
	}
	return 1 / (tq * deltaMax)
}

// K1FromStep derives a rough K1 from the random-walk step size and the mean
// inter-refresh time t, following the Chebyshev bound Pvr <= t*(2s/W)^2 of
// Appendix A with the bound treated as an approximation at t = 1.
func K1FromStep(s float64) float64 { return 4 * s * s }

// Pvr returns the value-initiated refresh probability at width w, clamped to
// [0, 1]. A zero width yields probability 1 (every update escapes a
// zero-width interval); an infinite width yields 0.
func (m Model) Pvr(w float64) float64 {
	if w == 0 {
		return 1
	}
	if math.IsInf(w, 1) {
		return 0
	}
	return math.Min(m.K1/(w*w), 1)
}

// Pqr returns the query-initiated refresh probability at width w, clamped to
// [0, 1]. An infinite width trips every query.
func (m Model) Pqr(w float64) float64 {
	if math.IsInf(w, 1) {
		return 1
	}
	return math.Min(m.K2*w, 1)
}

// Omega returns the expected cost rate Cvr*Pvr(w) + Cqr*Pqr(w).
func (m Model) Omega(w float64) float64 {
	return m.Cvr*m.Pvr(w) + m.Cqr*m.Pqr(w)
}

// Theta returns the interval-mode cost factor 2*Cvr/Cqr.
func (m Model) Theta() float64 { return 2 * m.Cvr / m.Cqr }

// OptimalWidth returns the width W* = (theta*K1/K2)^(1/3) minimizing Omega
// (the root of dOmega/dW; Section 3).
func (m Model) OptimalWidth() float64 {
	return math.Cbrt(m.Theta() * m.K1 / m.K2)
}

// CrossoverWidth returns the width at which theta*Pvr = Pqr. For this model
// it coincides with OptimalWidth; it is exposed separately so tests can
// assert the identity that justifies the balancing algorithm.
func (m Model) CrossoverWidth() float64 {
	// theta*K1/W^2 = K2*W  =>  W^3 = theta*K1/K2.
	return math.Cbrt(m.Theta() * m.K1 / m.K2)
}

// Curve samples Pvr, Pqr and Omega at n evenly spaced widths in [lo, hi],
// returning parallel slices. It regenerates the data behind Figure 2.
func (m Model) Curve(lo, hi float64, n int) (ws, pvr, pqr, omega []float64) {
	if n < 2 || hi <= lo {
		panic("policy: Curve needs n >= 2 and hi > lo")
	}
	ws = make([]float64, n)
	pvr = make([]float64, n)
	pqr = make([]float64, n)
	omega = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		w := lo + float64(i)*step
		ws[i] = w
		pvr[i] = m.Pvr(w)
		pqr[i] = m.Pqr(w)
		omega[i] = m.Omega(w)
	}
	return ws, pvr, pqr, omega
}

// StaleModel is the Divergence Caching analog (Section 4.7): for stale-count
// approximations the value-initiated refresh probability is proportional to
// 1/W rather than 1/W^2 (updates arrive at a rate independent of the bound,
// and a bound of W updates trips every W-th update), so the optimal balance
// uses theta' = Cvr/Cqr.
type StaleModel struct {
	// UpdateRate is the expected updates per time step.
	UpdateRate float64
	// K2 scales Pqr = K2*W as in Model.
	K2 float64
	// Cvr and Cqr are the refresh costs.
	Cvr float64
	// Cqr is the query-initiated refresh cost.
	Cqr float64
}

// Pvr returns UpdateRate/W clamped to [0, 1]; a zero bound refreshes on every
// update.
func (m StaleModel) Pvr(w float64) float64 {
	if w <= 0 {
		return math.Min(m.UpdateRate, 1)
	}
	if math.IsInf(w, 1) {
		return 0
	}
	return math.Min(m.UpdateRate/w, 1)
}

// Pqr returns K2*W clamped to [0, 1].
func (m StaleModel) Pqr(w float64) float64 {
	if math.IsInf(w, 1) {
		return 1
	}
	return math.Min(m.K2*w, 1)
}

// Omega returns the expected cost rate.
func (m StaleModel) Omega(w float64) float64 {
	return m.Cvr*m.Pvr(w) + m.Cqr*m.Pqr(w)
}

// OptimalWidth minimizes Omega: W* = sqrt(theta'*UpdateRate/K2) with
// theta' = Cvr/Cqr.
func (m StaleModel) OptimalWidth() float64 {
	return math.Sqrt(m.Cvr / m.Cqr * m.UpdateRate / m.K2)
}
