package cq

import (
	"math"
	"math/rand"
	"testing"

	"apcache/internal/interval"
)

// grid is the lattice the differential test keeps every endpoint and value
// on: multiples of 1/256 of moderate size add and subtract exactly in
// float64, so the engine's incremental sums equal a from-scratch recompute
// bit for bit and every comparison below is exact.
const grid = 1.0 / 256

func onGrid(x float64) float64 { return math.Floor(x/grid) * grid }

// envModel is the test's source side of one standing query: the exact
// values, the interval each key last shipped to the engine with the value
// it was refreshed at, and the width caps as gradually applied.
type envModel struct {
	kind  AggKind
	delta float64
	exact []float64
	ivs   []interval.Interval
	at    []float64
	caps  []float64
	width []float64 // the width the key's own controller would ship
}

// refresh re-centers key i on its exact value at the cap-clamped width.
func (m *envModel) refresh(i int) {
	half := onGrid(math.Min(m.width[i], m.caps[i]) / 2)
	m.ivs[i] = interval.Interval{Lo: m.exact[i] - half, Hi: m.exact[i] + half}
	m.at[i] = m.exact[i]
}

// tight recomputes the aggregate bound from scratch.
func (m *envModel) tight() interval.Interval {
	switch m.kind {
	case Max:
		return interval.MaxAll(m.ivs)
	case Min:
		return interval.MinAll(m.ivs)
	case Avg:
		return interval.SumAll(m.ivs).Scale(1 / float64(len(m.ivs)))
	}
	return interval.SumAll(m.ivs)
}

// aggregate applies the query's aggregate to one value per key.
func (m *envModel) aggregate(vals []float64) float64 {
	out := vals[0]
	for _, v := range vals[1:] {
		switch m.kind {
		case Max:
			out = math.Max(out, v)
		case Min:
			out = math.Min(out, v)
		default:
			out += v
		}
	}
	if m.kind == Avg {
		out /= float64(len(vals))
	}
	return out
}

// keyBudget is the bound on the sum of caps: keyShare of Delta, per key for
// an AVG.
func (m *envModel) keyBudget() float64 {
	if m.kind == Avg {
		return keyShare * m.delta * float64(len(m.caps))
	}
	return keyShare * m.delta
}

// TestEnvelopeMatchesRecompute is the differential property test of the
// emit rule: seeded random refresh streams for all four aggregates —
// unbounded and over-wide seeds, value-initiated escapes, budget re-splits
// applied steer by steer and the forced reads they cause — checked after
// every Observe against a recompute-from-scratch oracle. The test follows
// the answer the way a client does, from the registration's Update and the
// emitted ones only.
func TestEnvelopeMatchesRecompute(t *testing.T) {
	const cid = 40
	for _, kind := range []AggKind{Sum, Max, Min, Avg} {
		emits, observes, steered, forced := 0, 0, 0, 0
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(kind)))
			n := 2 + rng.Intn(11)
			m := &envModel{
				kind: kind, delta: float64(4 + rng.Intn(60)),
				exact: make([]float64, n), ivs: make([]interval.Interval, n), at: make([]float64, n),
				caps: make([]float64, n), width: make([]float64, n),
			}
			keys := make([]int, n)
			for i := range keys {
				keys[i] = 100 + i
				m.exact[i] = onGrid(rng.NormFloat64() * 50)
				m.caps[i] = InitialTarget(kind, m.delta, n)
				m.width[i] = m.delta * math.Pow(2, float64(rng.Intn(8)-6))
				m.refresh(i)
				switch rng.Intn(8) {
				case 0: // a seed the caller could not bound
					m.ivs[i] = interval.Unbounded()
				case 1: // half-bounded
					m.ivs[i].Hi = math.Inf(1)
				case 2: // bounded, but far over its share
					m.ivs[i].Lo -= m.delta
				}
			}
			e := NewEngine()
			up, _, _ := e.Register(Spec{Owner: 1, QID: 1, Kind: kind, Delta: m.delta, Keys: keys}, cid, m.ivs, m.at)
			held := up.Iv

			// observe ships key i's current interval to the engine and checks
			// every property of the step.
			observe := func(step, i int, escape bool) []Steer {
				prev := held
				up, emit, steers := e.Observe(cid, keys[i], m.ivs[i], m.at[i], escape)
				observes++
				tight := m.tight()
				if got := e.byCache[cid].agg.Result(); got != tight {
					t.Fatalf("kind %d seed %d step %d: incremental aggregate %v, recomputed %v", kind, seed, step, got, tight)
				}
				// (c) an emission happens iff the tight result left the answer
				// the client held — or that answer was over budget and can now
				// be improved.
				want := !prev.Contains(tight) || (prev.Width() > m.delta && tight != prev)
				if emit != want {
					t.Fatalf("kind %d seed %d step %d: emit=%v, want %v (held %v, tight %v, delta %g)", kind, seed, step, emit, want, prev, tight, m.delta)
				}
				if emit {
					emits++
					held = up.Iv
					if want := m.aggregate(m.at); up.Value != want {
						t.Fatalf("kind %d seed %d step %d: emitted Value %g, want the center aggregate %g", kind, seed, step, up.Value, want)
					}
					if tight.Width() < m.delta && held.Width() < m.delta*(1-1e-12) {
						t.Fatalf("kind %d seed %d step %d: envelope %v of %v not padded out to delta %g", kind, seed, step, held, tight, m.delta)
					}
					if tight.Width() >= m.delta && held != tight {
						t.Fatalf("kind %d seed %d step %d: over-budget tight %v shipped as %v", kind, seed, step, tight, held)
					}
				}
				if got, _, _ := e.Answer(1, 1); got != held {
					t.Fatalf("kind %d seed %d step %d: engine holds %v, the client %v", kind, seed, step, got, held)
				}
				// (a) the held answer bounds the tight result and the truth.
				if !held.Contains(tight) {
					t.Fatalf("kind %d seed %d step %d: held %v does not contain tight %v", kind, seed, step, held, tight)
				}
				if truth := m.aggregate(m.exact); !held.Valid(truth) {
					t.Fatalf("kind %d seed %d step %d: held %v does not contain the exact aggregate %g", kind, seed, step, held, truth)
				}
				// (b) precision, exactly: no tolerance.
				if tight.Width() <= m.delta && held.Width() > m.delta {
					t.Fatalf("kind %d seed %d step %d: held %v is %g wide, over delta %g by %g", kind, seed, step, held, held.Width(), m.delta, held.Width()-m.delta)
				}
				return steers
			}

			for step := 0; step < 1500; step++ {
				i := rng.Intn(n)
				if rng.Intn(4) == 0 {
					i = 0 // one hot key, so re-splits have something to move
				}
				if rng.Intn(16) == 0 {
					m.width[i] = m.delta * math.Pow(2, float64(rng.Intn(8)-6))
				}
				m.exact[i] += onGrid(rng.NormFloat64() * m.delta / float64(4*n))
				if m.ivs[i].Valid(m.exact[i]) {
					// The source stays silent, but for the odd refresh that is
					// not the value's doing; it is what retires unbounded seeds.
					if rng.Intn(32) == 0 {
						m.refresh(i)
						observe(step, i, false)
					}
					continue
				}
				m.refresh(i)
				for _, st := range observe(step, i, true) {
					// (d) the key budget holds at every instant of a gradual,
					// shrinks-first application.
					j := st.Key - keys[0]
					m.caps[j] = st.Target
					steered++
					sum := 0.0
					for _, c := range m.caps {
						sum += c
					}
					if sum > m.keyBudget()*(1+1e-12) {
						t.Fatalf("kind %d seed %d step %d: caps sum to %g mid-application, over the key budget %g", kind, seed, step, sum, m.keyBudget())
					}
					if m.ivs[j].Width() > st.Target {
						m.refresh(j)
						forced++
						if more := observe(step, j, false); len(more) != 0 {
							t.Fatalf("kind %d seed %d step %d: a forced read re-split again", kind, seed, step)
						}
					}
				}
			}
		}
		if emits < 50 || observes-emits < 50 {
			t.Errorf("kind %d: %d emits in %d observes; the streams do not exercise both sides of the rule", kind, emits, observes)
		}
		if (kind == Sum || kind == Avg) && (steered == 0 || forced == 0) {
			t.Errorf("kind %d: %d steers, %d forced reads; the streams do not exercise the re-split", kind, steered, forced)
		}
		t.Logf("kind %d: %d observes, %d emits, %d steers, %d forced reads", kind, observes, emits, steered, forced)
	}
}

// TestEnvelopeWidthRoundsLikeWidth: padding [1, 1.6] out to 5.5 as
// Lo - pad, Hi + pad lands on a width of 5.500000000000001, one ulp over the
// budget the client checks with Width() <= Delta. The envelope gives the
// ulp back out of the padding, for these pinned cases and a stream of
// off-grid ones.
func TestEnvelopeWidthRoundsLikeWidth(t *testing.T) {
	check := func(tight interval.Interval, delta float64) {
		t.Helper()
		env := envelope(tight, delta)
		if env.Width() > delta {
			t.Fatalf("envelope(%v, %g) = %v, %g wide: over by %g", tight, delta, env, env.Width(), env.Width()-delta)
		}
		if !env.Contains(tight) {
			t.Fatalf("envelope(%v, %g) = %v does not contain its tight result", tight, delta, env)
		}
		big := math.Max(math.Abs(env.Lo), math.Abs(env.Hi))
		if ulp := math.Nextafter(big, math.Inf(1)) - big; delta-env.Width() > 4*ulp {
			t.Fatalf("envelope(%v, %g) = %v gave away %g of the budget, more than rounding takes", tight, delta, env, delta-env.Width())
		}
	}
	naive := func(tight interval.Interval, delta float64) float64 {
		pad := (delta - tight.Width()) / 2
		return (tight.Hi + pad) - (tight.Lo - pad)
	}
	for _, c := range []struct{ lo, hi, delta float64 }{
		{1, 1.6, 5.5},
		{0, 0.3, 3.9},
		{1.9, 2.5999999999999996, 1.5},
	} {
		tight := iv(c.lo, c.hi)
		if naive(tight, c.delta) <= c.delta {
			t.Fatalf("[%g,%g] delta %g no longer rounds over; pick another case", c.lo, c.hi, c.delta)
		}
		check(tight, c.delta)
	}
	rng := rand.New(rand.NewSource(5))
	over := 0
	for i := 0; i < 20000; i++ {
		lo := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-2))
		w := rng.Float64() * math.Pow(10, float64(rng.Intn(5)-3))
		tight := iv(lo, lo+w)
		delta := tight.Width() * (1 + 4*rng.Float64())
		if naive(tight, delta) > delta {
			over++
		}
		check(tight, delta)
	}
	if over == 0 {
		t.Errorf("no random case rounded over delta; the stream does not exercise the shave")
	}
	// At or over budget, and unbounded: the tight result itself.
	for _, tight := range []interval.Interval{iv(0, 2), iv(0, 3), {Lo: 0, Hi: math.Inf(1)}, interval.Unbounded()} {
		if got := envelope(tight, 2); got != tight {
			t.Errorf("envelope(%v, 2) = %v, want the tight result itself", tight, got)
		}
	}
}

// TestEngineEnvelopeSilence walks the emit rule through one query by hand:
// the registration ships the padded envelope, key refreshes that keep the
// tight sum inside it are silent, and the one that leaves it ships a fresh
// envelope centered where the aggregate is now.
func TestEngineEnvelopeSilence(t *testing.T) {
	e := NewEngine()
	spec := Spec{Owner: 1, QID: 1, Kind: Sum, Delta: 8, Keys: []int{0, 1}}
	up, _, _ := e.Register(spec, 9, []interval.Interval{iv(9, 11), iv(19, 21)}, []float64{10, 20})
	if up.Iv != iv(26, 34) || up.Value != 30 {
		t.Fatalf("registration shipped %v val %g, want the envelope [26,34] val 30", up.Iv, up.Value)
	}
	// Tight sum [30,34]: still inside [26,34].
	if _, emit, _ := e.Observe(9, 0, iv(11, 13), 12, true); emit {
		t.Errorf("a refresh that kept the tight sum inside the envelope emitted")
	}
	if got, val, _ := e.Answer(1, 1); got != iv(26, 34) || val != 30 {
		t.Errorf("silent refresh moved the held answer to %v val %g", got, val)
	}
	// Tight sum [32,36]: left it.
	up, emit, _ := e.Observe(9, 1, iv(21, 23), 22, true)
	if !emit || up.Iv != iv(30, 38) || up.Value != 34 {
		t.Errorf("escape shipped %+v emit=%v, want the envelope [30,38] val 34", up, emit)
	}
}

// TestResplitDoesNotCountItsForcedReads: the reads a re-split forces to
// bring keys under their tightened caps are its own doing. Counted as
// escapes they would read as heat on exactly the keys it just shrank and
// bias the next split towards undoing this one.
func TestResplitDoesNotCountItsForcedReads(t *testing.T) {
	e := NewEngine()
	keys := []int{0, 1, 2, 3}
	t0 := InitialTarget(Sum, 8, len(keys))
	seeds := make([]interval.Interval, len(keys))
	for i := range seeds {
		seeds[i] = iv(0, t0)
	}
	e.Register(Spec{Owner: 1, QID: 1, Kind: Sum, Delta: 8, Keys: keys}, 9, seeds, make([]float64, len(keys)))
	var steers []Steer
	for i := 0; len(steers) == 0; i++ {
		if i > resplitEvery {
			t.Fatalf("no re-split after %d escapes of one key", i)
		}
		_, _, steers = e.Observe(9, 0, iv(float64(i), float64(i)+t0), float64(i), true)
	}
	q := e.byCache[9]
	forced := 0
	for _, st := range steers {
		if st.Target >= t0 {
			continue
		}
		forced++
		if _, _, more := e.Observe(9, st.Key, iv(0, st.Target), 0, false); len(more) != 0 {
			t.Fatalf("a forced read re-split again")
		}
	}
	if forced == 0 {
		t.Fatalf("the re-split shrank no key: %v", steers)
	}
	for i, c := range q.counts {
		if c != 0 {
			t.Errorf("key %d counts %g escapes after the re-split's own %d forced reads, want 0", keys[i], c, forced)
		}
	}
	if q.events != 0 {
		t.Errorf("re-split window already holds %d events after forced reads only, want 0", q.events)
	}
}
