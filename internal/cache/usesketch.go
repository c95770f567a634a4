package cache

import "math"

// The use-aware order's constants. They are not configuration: on the sizing
// model of the networked client's cache (model_test.go, 1178.3 cost/kop as
// set, 1434.6 widest-first) rows read 1186.6 / 1178.3 / 1177.8 at 2 / 4 / 8,
// and counters per slot 1185.2 / 1178.3 / 1177.7 at 4 / 8 / 16.
//
// New's ageing period trades recency against frequency (TinyLFU's trade-off:
// Einziger, Friedman & Manes, ACM ToS 2017), and the model prices both sides.
// Stationary is the cost/kop of ten sweeps of the fixed schedule (the same
// from 512 on). The two rows below it move the hot set at once
// (TestUseAwareRecoversFromAShift): the shift sweep's cost against the level
// before it, and the sweeps until one is back within 3 % of that level (18 at
// 1024).
//
//	capacities     8       16      32      64      160     256     512
//	stationary     1328.9  1248.9  1202.0  1178.3  1173.2  1172.1  1171.0
//	shift sweep    ×1.22   ×1.34   ×1.46   ×1.56   ×1.70   ×1.83   ×1.83
//	recovery       1       2       4       5       10      13      14
//
// New ages every 64 capacities. A longer period buys little on a fixed hot
// set: 512 bought query_zipf 0.6 to 0.9 % live (1167.1 -> 1156.2 cost/kop in
// two pairs). It pays for that when the hot set moves: seventeen sweeps after
// a shift the model reads 1206.1 at 512 against 1156.9 at 64. No workload puts
// a price on a moving hot set, so moving the period is a change of its own.
//
// A Store shard (NewShard) ages every 32 of its capacities, and moves the
// other way: an in-process store_mixed replica read 174.4 at 8, 179.6 at 64
// and 182.9 at 512 of the half-share capacities a shard counted in until the
// shards stopped lending (4, 32 and 256 whole shares). A Store Get costs
// nothing in Ω, so the hit ratio a short period gives up there (0.909 at 32
// shares, 0.876 at 4) is not priced. On the benchmark's store_mixed (seed 1,
// 20 s, 2 vCPUs) the Store reads 177.05 at 32 and 179.56 at 64
// (BENCH_store.json, pr52_even_split).
const (
	sketchRows    = 4  // counters a key touches; its estimate is their minimum
	sketchWidth   = 8  // counters per row, in capacities, rounded up to a power of two
	ageEvery      = 64 // New's lookups between two halvings, in capacities
	shardAgeEvery = 32 // NewShard's
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
