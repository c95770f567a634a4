package policy

import (
	"math"
	"testing"

	"apcache/internal/core"
)

// seqRand replays a fixed sequence of variates, then repeats the last one.
type seqRand struct {
	vals []float64
	i    int
}

func (s *seqRand) Float64() float64 {
	if s.i < len(s.vals) {
		v := s.vals[s.i]
		s.i++
		return v
	}
	if len(s.vals) == 0 {
		return 0
	}
	return s.vals[len(s.vals)-1]
}

// alwaysLow always fires probabilistic adjustments.
var alwaysLow = &seqRand{vals: []float64{0}}

func theta1Params() core.Params {
	return core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)}
}

func TestFixedController(t *testing.T) {
	f := NewFixedController(7)
	f.RefreshInterval(core.ValueInitiated, true, 0)
	f.RefreshInterval(core.QueryInitiated, false, 0)
	if f.Width() != 7 {
		t.Errorf("fixed width drifted: %g", f.Width())
	}
	iv := f.RefreshInterval(core.ValueInitiated, false, 0)
	if iv.Lo != -3.5 || iv.Hi != 3.5 {
		t.Errorf("fixed interval = %v, want [-3.5, 3.5]", iv)
	}
	for _, w := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFixedController(%g) did not panic", w)
				}
			}()
			NewFixedController(w)
		}()
	}
}
