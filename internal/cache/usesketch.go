package cache

import "math"

// The use-aware order's constants. They are not configuration because the
// sizing model (model_test.go) is flat around them: 1203 / 1189 cost/kop at
// 2 / 4 rows, 1199 / 1189 / 1188 at 4 / 8 / 16 counters per slot, 1189 / 1178
// at 64 / 160 capacities between halvings (1364 widest-first).
const (
	sketchRows  = 4  // counters a key touches; its estimate is their minimum
	sketchWidth = 8  // counters per row, in capacities, rounded up to a power of two
	ageEvery    = 64 // lookups between two halvings, in capacities
)

// useSketch is a count-min sketch of lookups per key, all a cache remembers
// about a key it does not hold (its misses, and the count it last left with),
// in a saturating byte per counter. A nil sketch estimates 0 for every key.
type useSketch struct {
	counts []uint8 // sketchRows rows of mask+1 counters
	mask   uint64
}

func newUseSketch(capacity int) *useSketch {
	w := 1
	for w < sketchWidth*capacity {
		w <<= 1
	}
	return &useSketch{counts: make([]uint8, sketchRows*w), mask: uint64(w - 1)}
}

// slot returns key's counter in row r: the splitmix64 finaliser of the key,
// whose low half picks the counter in row 0 and whose high half, made odd, is
// the stride to each further row's.
func (s *useSketch) slot(key int, r uint64) *uint8 {
	h := uint64(key) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return &s.counts[r*(s.mask+1)+(h+r*(h>>32|1))&s.mask]
}

// add credits one lookup to key.
func (s *useSketch) add(key int) {
	for r := uint64(0); r < sketchRows; r++ {
		if p := s.slot(key, r); *p < math.MaxUint8 {
			*p++
		}
	}
}

// raise lifts key's counters to at least n, saturating: a leaving resident's
// exact count, so that the key competes with it on its return.
func (s *useSketch) raise(key int, n uint32) {
	for r := uint64(0); s != nil && r < sketchRows; r++ {
		p := s.slot(key, r)
		*p = max(*p, uint8(min(n, math.MaxUint8)))
	}
}

// estimate returns the lookups credited to key since they were last halved
// away: never fewer than were added, short of saturation.
func (s *useSketch) estimate(key int) uint32 {
	if s == nil {
		return 0
	}
	least := uint8(math.MaxUint8)
	for r := uint64(0); r < sketchRows; r++ {
		least = min(least, *s.slot(key, r))
	}
	return uint32(least)
}

// halve ages every counter.
func (s *useSketch) halve() {
	for i := range s.counts {
		s.counts[i] /= 2
	}
}
