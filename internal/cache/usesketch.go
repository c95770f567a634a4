package cache

import "math"

// The use-aware order's constants. They are not configuration: on the sizing
// model of the networked client's cache (model_test.go, 1171.0 cost/kop as
// set, 1434.6 widest-first) rows read 1174.4 / 1171.0 / 1170.7 at 2 / 4 / 8,
// and counters per slot 1174.7 / 1171.0 / 1170.6 at 4 / 8 / 16.
//
// New's ageing period trades recency against frequency (TinyLFU's trade-off:
// Einziger, Friedman & Manes, ACM ToS 2017), so New learns it from its hit
// ratio: a long memory while the ratio holds, a short one once it falls (the
// rule is in credit). Against the fixed 64 capacities it replaced, the model
// reads 1171.0 against 1178.3 over ten stationary sweeps (a fixed 512's level;
// no window falls) and 1159.2 against 1174.2 over thirty. When the hot set
// moves (TestUseAwareRecoversFromAShift) it is back within 3 % in five sweeps,
// as at 64 (fourteen at a fixed 512), and sweeps 15-19 after the move read
// 1153.5 against 1164.3 at 64 and 1189.9 at 512. Windows of 8 / 16 / 32
// capacities recover in 5 / 5 / 6 sweeps; a fall threshold of 5 to 20 % reads
// the same.
//
// A Store shard (NewShard) ages at a fixed 32 of its capacities, and a
// longer memory costs it: a Store Get costs nothing in Ω, so the hit ratio it
// buys there is not priced. On the benchmark's store_mixed (seed 1, 20 s,
// 2 vCPUs) the Store reads 177.05 at 32 and 179.56 at 64 (BENCH_store.json,
// pr52_even_split).
const (
	sketchRows    = 4   // counters a key touches; its estimate is their minimum
	sketchWidth   = 8   // counters per row, in capacities, rounded up to a power of two
	ageWindow     = 16  // New's lookups per hit-ratio window, in capacities
	maxAgeEvery   = 512 // New's first and longest ageing period, in capacities
	shardAgeEvery = 32  // NewShard's fixed one
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
