package stats

import "sync/atomic"

// Stripes is a set of per-stripe counter blocks for event counters bumped by
// goroutines that hold no lock — the seqlock cache's readers counting their
// hits and misses: each stripe is padded out to its own cache lines so
// counters bumped through different stripes never false-share, with
// aggregation (Sum) done by the reader instead of the writers. Writers call
// Add/Inc on the stripe their key hashes to; any goroutine may Load/Sum
// concurrently. State whose writers all hold a lock is not a use for this: a
// plain field under that lock is the whole mechanism.
//
// All operations are atomic, so Stripes is safe for fully concurrent use.
type Stripes struct {
	counters int // counters per stripe (logical)
	stride   int // slots per stripe, padded to whole cache lines
	cells    []atomic.Int64
}

// cacheLineInt64s is how many int64 counters fill one 64-byte cache line.
const cacheLineInt64s = 8

// NewStripes returns a counter set with nStripes stripes of nCounters
// counters each. Both must be positive.
func NewStripes(nStripes, nCounters int) *Stripes {
	if nStripes <= 0 || nCounters <= 0 {
		panic("stats: NewStripes needs positive dimensions")
	}
	// Round the stripe up to a whole number of cache lines, plus one spare
	// line of padding so adjacent stripes cannot share a line even when the
	// logical counters exactly fill their lines.
	stride := (nCounters + cacheLineInt64s - 1) / cacheLineInt64s * cacheLineInt64s
	stride += cacheLineInt64s
	return &Stripes{
		counters: nCounters,
		stride:   stride,
		cells:    make([]atomic.Int64, nStripes*stride),
	}
}

// Stripes returns the number of stripes.
func (s *Stripes) Stripes() int { return len(s.cells) / s.stride }

// Counters returns the number of counters per stripe.
func (s *Stripes) Counters() int { return s.counters }

func (s *Stripes) cell(stripe, counter int) *atomic.Int64 {
	if counter < 0 || counter >= s.counters {
		panic("stats: counter index out of range")
	}
	return &s.cells[stripe*s.stride+counter]
}

// Add atomically adds delta to one counter of one stripe.
func (s *Stripes) Add(stripe, counter int, delta int64) {
	s.cell(stripe, counter).Add(delta)
}

// Inc atomically adds 1 to one counter of one stripe.
func (s *Stripes) Inc(stripe, counter int) { s.cell(stripe, counter).Add(1) }

// Load atomically reads one counter of one stripe.
func (s *Stripes) Load(stripe, counter int) int64 {
	return s.cell(stripe, counter).Load()
}

// Sum aggregates one counter across every stripe. The result is a sum of
// individually atomic loads, not a global snapshot: concurrent writers may
// land between stripe reads, exactly like the per-shard-consistent snapshots
// elsewhere in this codebase.
func (s *Stripes) Sum(counter int) int64 {
	var total int64
	n := s.Stripes()
	for i := 0; i < n; i++ {
		total += s.Load(i, counter)
	}
	return total
}
