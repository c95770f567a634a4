// Package workload generates the update streams and query loads of the
// performance study (Section 4.1): per-second value updates from random
// walks or trace playback, and bounded-aggregate queries issued every Tq
// seconds with precision constraints sampled uniformly from
// [davg*(1-sigma), davg*(1+sigma)].
package workload

import (
	"fmt"
	"math"

	"apcache/internal/query"
)

// Rand is the randomness source used by generators; *math/rand.Rand
// satisfies it.
type Rand interface {
	Float64() float64
	Intn(n int) int
}

// UpdateSource produces the successive exact values of one source data item,
// one value per time step.
type UpdateSource interface {
	// Value returns the current exact value.
	Value() float64
	// Step advances one time step and returns the new value.
	Step() float64
}

// RandomWalk is the Section 4.2 synthetic update stream: every time step the
// value moves up or down by an amount sampled uniformly from [StepLo,
// StepHi]. The unbiased walk has UpProb = 0.5; Section 4.5's biased walks
// use larger values.
type RandomWalk struct {
	value  float64
	stepLo float64
	stepHi float64
	upProb float64
	rng    Rand
}

// NewRandomWalk returns an unbiased random walk starting at start with step
// sizes uniform on [stepLo, stepHi]. The paper's Section 4.2 walk uses
// [0.5, 1.5].
func NewRandomWalk(start, stepLo, stepHi float64, rng Rand) *RandomWalk {
	return NewBiasedWalk(start, stepLo, stepHi, 0.5, rng)
}

// NewBiasedWalk returns a walk that moves up with probability upProb.
func NewBiasedWalk(start, stepLo, stepHi, upProb float64, rng Rand) *RandomWalk {
	if stepLo < 0 || stepHi < stepLo {
		panic(fmt.Sprintf("workload: bad step range [%g, %g]", stepLo, stepHi))
	}
	if upProb < 0 || upProb > 1 {
		panic(fmt.Sprintf("workload: bad up-probability %g", upProb))
	}
	if rng == nil {
		panic("workload: nil Rand")
	}
	return &RandomWalk{value: start, stepLo: stepLo, stepHi: stepHi, upProb: upProb, rng: rng}
}

// Value returns the current walk position.
func (w *RandomWalk) Value() float64 { return w.value }

// Step advances the walk one time step.
func (w *RandomWalk) Step() float64 {
	step := w.stepLo + w.rng.Float64()*(w.stepHi-w.stepLo)
	if w.rng.Float64() < w.upProb {
		w.value += step
	} else {
		w.value -= step
	}
	return w.value
}

// Playback replays a recorded value sequence (used for the network
// monitoring traces). After the last sample it holds the final value.
type Playback struct {
	samples []float64
	pos     int
}

// NewPlayback wraps a sample sequence; it panics on an empty sequence.
func NewPlayback(samples []float64) *Playback {
	if len(samples) == 0 {
		panic("workload: empty playback")
	}
	return &Playback{samples: samples}
}

// Value returns the current sample.
func (p *Playback) Value() float64 { return p.samples[p.pos] }

// Step advances to the next sample, holding the last one at end of trace.
func (p *Playback) Step() float64 {
	if p.pos < len(p.samples)-1 {
		p.pos++
	}
	return p.samples[p.pos]
}

// Len returns the total number of samples.
func (p *Playback) Len() int { return len(p.samples) }

// AggKind and Query are the planner's bounded-aggregate query types,
// named here for the study code that draws them.
type (
	AggKind = query.AggKind
	Query   = query.Query
)

// The aggregate kinds.
const (
	Sum = query.Sum
	Max = query.Max
	Min = query.Min
	Avg = query.Avg
)

// ConstraintDist describes the precision-constraint distribution of Section
// 4.1: uniform between Min() = Avg*(1-Sigma) and Max() = Avg*(1+Sigma).
type ConstraintDist struct {
	// Avg is davg, the average precision constraint.
	Avg float64
	// Sigma is the variation: 0 pins every query at Avg; 1 spreads them
	// over [0, 2*Avg].
	Sigma float64
}

// Min returns davg*(1-sigma).
func (c ConstraintDist) Min() float64 { return c.Avg * (1 - c.Sigma) }

// Max returns davg*(1+sigma).
func (c ConstraintDist) Max() float64 { return c.Avg * (1 + c.Sigma) }

// Sample draws one constraint.
func (c ConstraintDist) Sample(rng Rand) float64 {
	if c.Avg == 0 {
		return 0
	}
	lo, hi := c.Min(), c.Max()
	return lo + rng.Float64()*(hi-lo)
}

// FromRange builds the distribution matching an explicit [min, max]
// constraint range, the parameterization used by Figure 6's series labels.
func FromRange(min, max float64) ConstraintDist {
	if min < 0 || max < min {
		panic(fmt.Sprintf("workload: bad constraint range [%g, %g]", min, max))
	}
	avg := (min + max) / 2
	if avg == 0 {
		return ConstraintDist{}
	}
	return ConstraintDist{Avg: avg, Sigma: (max - min) / (2 * avg)}
}

// QueryGen draws the study's queries: every period a query of one of Kinds
// (uniformly chosen) over KeysPerQuery distinct sources out of NumSources,
// with a constraint from Constraints.
type QueryGen struct {
	// Kinds are the aggregate types to rotate among; the study uses
	// {Sum} or {Max} per run.
	Kinds []AggKind
	// NumSources is the number of data sources n.
	NumSources int
	// KeysPerQuery is how many randomly selected sources each query
	// touches (10 in Section 4.3).
	KeysPerQuery int
	// Constraints is the precision-constraint distribution.
	Constraints ConstraintDist
	// RNG drives all sampling.
	RNG Rand
	// Zipf, when non-nil, skews key selection toward low-numbered keys
	// (hot sources) instead of the default uniform choice. Build it with
	// NewZipfKeys.
	Zipf *ZipfKeys
}

// ZipfKeys samples keys with a Zipf-like skew: key k is drawn with
// probability proportional to 1/(k+1)^S. It models hot-spot query loads over
// monitoring data, where a few sources attract most of the attention.
type ZipfKeys struct {
	cdf []float64
}

// NewZipfKeys builds a sampler over n keys with exponent s > 0. Larger s
// concentrates more probability on the first keys.
func NewZipfKeys(n int, s float64) *ZipfKeys {
	if n <= 0 || s <= 0 || math.IsNaN(s) {
		panic(fmt.Sprintf("workload: bad Zipf parameters n=%d s=%g", n, s))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &ZipfKeys{cdf: cdf}
}

// N returns the number of keys covered.
func (z *ZipfKeys) N() int { return len(z.cdf) }

// Sample draws one key.
func (z *ZipfKeys) Sample(rng Rand) int {
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SampleDistinct draws k distinct keys by rejection.
func (z *ZipfKeys) SampleDistinct(rng Rand, k int) []int {
	if k > len(z.cdf) {
		panic(fmt.Sprintf("workload: cannot sample %d distinct of %d keys", k, len(z.cdf)))
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		key := z.Sample(rng)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

// Validate reports whether the generator is well formed.
func (g *QueryGen) Validate() error {
	switch {
	case len(g.Kinds) == 0:
		return fmt.Errorf("workload: no aggregate kinds")
	case g.NumSources <= 0:
		return fmt.Errorf("workload: NumSources must be positive, got %d", g.NumSources)
	case g.KeysPerQuery <= 0 || g.KeysPerQuery > g.NumSources:
		return fmt.Errorf("workload: KeysPerQuery %d out of range 1..%d", g.KeysPerQuery, g.NumSources)
	case g.Constraints.Avg < 0 || math.IsNaN(g.Constraints.Avg):
		return fmt.Errorf("workload: negative constraint average %g", g.Constraints.Avg)
	case g.Constraints.Sigma < 0 || g.Constraints.Sigma > 1:
		return fmt.Errorf("workload: sigma %g out of [0, 1]", g.Constraints.Sigma)
	case g.RNG == nil:
		return fmt.Errorf("workload: nil RNG")
	case g.Zipf != nil && g.Zipf.N() != g.NumSources:
		return fmt.Errorf("workload: Zipf covers %d keys, want %d", g.Zipf.N(), g.NumSources)
	}
	return nil
}

// Next draws the next query. It panics if the generator is invalid; callers
// validate at configuration time.
func (g *QueryGen) Next() Query {
	kind := g.Kinds[0]
	if len(g.Kinds) > 1 {
		kind = g.Kinds[g.RNG.Intn(len(g.Kinds))]
	}
	var keys []int
	if g.Zipf != nil {
		keys = g.Zipf.SampleDistinct(g.RNG, g.KeysPerQuery)
	} else {
		keys = sampleDistinct(g.RNG, g.NumSources, g.KeysPerQuery)
	}
	return Query{
		Kind:  kind,
		Keys:  keys,
		Delta: g.Constraints.Sample(g.RNG),
	}
}

// sampleDistinct draws k distinct ints from [0, n) via a partial
// Fisher-Yates shuffle.
func sampleDistinct(rng Rand, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
