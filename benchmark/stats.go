package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// nowNS is the one clock of the benchmark: wall-clock nanoseconds, shared
// by the parent and the host child (same machine), so a due time computed
// in one process is meaningful in the other.
func nowNS() int64 { return time.Now().UnixNano() }

// spinWindow is how long before a due time the pacer stops sleeping and
// spins: the kernel sleep overshoots by ~0.1 ms at the median, a spin by
// well under a microsecond.
const spinWindow = 200 * time.Microsecond

// pacer waits for due times and accounts for the CPU its own spinning
// burns, so that cost can be taken out of a process's CPU reading.
type pacer struct {
	spinNS atomic.Int64
}

// until blocks until the wall clock reaches due and returns how late it
// woke (0 when on time).
func (p *pacer) until(due int64) int64 {
	for {
		rem := due - nowNS()
		if rem <= 0 {
			return -rem
		}
		if rem > int64(spinWindow) {
			coarseSleep(time.Duration(rem) - spinWindow)
			continue
		}
		t0 := nowNS()
		for nowNS() < due {
		}
		late := nowNS() - due
		p.spinNS.Add(nowNS() - t0)
		return late
	}
}

// spinSeconds returns the CPU seconds spent spinning so far.
func (p *pacer) spinSeconds() float64 { return float64(p.spinNS.Load()) / 1e9 }

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// nSlices is how many equal slices a measured phase is cut into. A shared
// sandbox disturbs a run in one direction only — a stall, a stolen CPU —
// and how much of that a run catches is the largest part of the run-to-run
// spread. So a rate is reported as the upper quartile of the slices' rates
// and a latency percentile as the lower quartile of the slices' percentiles:
// what the system does in the quieter three quarters of the window, which
// is what two commits are to be compared on.
const nSlices = 50

// quietQuantile is the quantile of the slices a latency is read at; a rate
// is read at 1 - quietQuantile.
const quietQuantile = 0.25

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// sliced collects timing samples by slice of a phase.
type sliced struct {
	start, length int64 // phase start and slice length, ns
	by            [nSlices][]float64
}

func newSliced(start, phaseNS int64, capPerSlice int) *sliced {
	s := &sliced{start: start, length: phaseNS / nSlices}
	if s.length <= 0 {
		s.length = 1
	}
	for i := range s.by {
		s.by[i] = make([]float64, 0, capPerSlice)
	}
	return s
}

// sliceOf maps an instant to its slice, or -1 outside the phase.
func (s *sliced) sliceOf(at int64) int {
	return phaseClock{start: s.start, length: s.length}.slice(at)
}

func (s *sliced) add(at int64, v float64) {
	if i := s.sliceOf(at); i >= 0 {
		s.by[i] = append(s.by[i], v)
	}
}

// merge folds another collector of the same phase into s.
func (s *sliced) merge(o *sliced) {
	for i := range s.by {
		s.by[i] = append(s.by[i], o.by[i]...)
	}
}

func (s *sliced) count() int {
	n := 0
	for i := range s.by {
		n += len(s.by[i])
	}
	return n
}

// max is the largest sample of the phase.
func (s *sliced) max() float64 {
	m := 0.0
	for i := range s.by {
		for _, v := range s.by[i] {
			m = math.Max(m, v)
		}
	}
	return m
}

// p50 is the quiet-quartile median: see tail.
func (s *sliced) p50() float64 { return s.tail(0.5) }

// tail is the lower quartile over the slices of each slice's q-quantile;
// empty slices are left out.
func (s *sliced) tail(q float64) float64 {
	var per []float64
	for i := range s.by {
		if len(s.by[i]) == 0 {
			continue
		}
		c := append([]float64(nil), s.by[i]...)
		sort.Float64s(c)
		per = append(per, percentile(c, q))
	}
	return quantile(per, quietQuantile)
}

// sliceRates turns per-slice completion counts into the upper-quartile rate
// per second over the slices.
func sliceRates(counts []int64, sliceNS int64) float64 {
	r := make([]float64, len(counts))
	for i, c := range counts {
		r[i] = float64(c) / (float64(sliceNS) / 1e9)
	}
	return quantile(r, 1-quietQuantile)
}

// phaseClock maps instants to the slices of a phase and, in a traced run,
// says whether spans are being taken in that slice: odd slices are traced
// and even ones are not, which gives the traced run its own untraced
// control for trace.overhead_ratio. Parent and host compute the same
// answer from the wall clock alone.
type phaseClock struct {
	start, length int64
	traced        bool
}

func (c phaseClock) slice(at int64) int {
	if at < c.start {
		return -1
	}
	i := int((at - c.start) / c.length)
	if i >= nSlices {
		return -1
	}
	return i
}

func (c phaseClock) tracing(slice int) bool { return c.traced && slice%2 == 1 }

// overheadRatio is traced ÷ untraced throughput over the alternating slices
// of a traced run; 1 when the run is untraced.
func overheadRatio(counts []int64, traced bool) float64 {
	if !traced {
		return 1
	}
	var on, off []float64
	for i, c := range counts {
		if i%2 == 1 {
			on = append(on, float64(c))
		} else {
			off = append(off, float64(c))
		}
	}
	if m := median(off); m > 0 {
		return median(on) / m
	}
	return 0
}
