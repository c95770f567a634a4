package cache

import (
	"fmt"
	"sync/atomic"
)

// Budget is a shared pool of spare cache slots that a group of shard caches
// draws on before resorting to eviction. Splitting a capacity cap evenly
// across shards wastes it under skew: a hot shard evicts at its static cap
// while a cold shard's share sits idle. With a Budget, each shard reserves
// only a small guaranteed base and borrows the rest from the pool on demand
// (one slot per admission beyond the base), returning a slot only when it
// drops an entry (Release). Lending is first come, first served: a loan is
// never recalled, so a shard's evictions come from its own admissions alone.
// The aggregate bound — sum of bases plus the pool — is exact: the group can
// never hold more entries than the configured total, but any single shard may
// grow far past its even share if the others leave slack.
//
// A Budget is a slack counter, lock-free and safe for concurrent use from
// every shard.
type Budget struct {
	slack atomic.Int64
	total int64
}

// NewBudget returns a pool of the given number of slots (non-negative).
func NewBudget(slots int) *Budget {
	if slots < 0 {
		panic(fmt.Sprintf("cache: negative budget %d", slots))
	}
	b := &Budget{total: int64(slots)}
	b.slack.Store(int64(slots))
	return b
}

// Acquire claims one slot, reporting whether one was available.
func (b *Budget) Acquire() bool {
	for {
		cur := b.slack.Load()
		if cur <= 0 {
			return false
		}
		if b.slack.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// Release returns one slot to the pool, clamped to the constructed total: a
// mismatched Release is dropped instead of silently inflating the slack —
// and with it the aggregate cache cap — past the configured size.
func (b *Budget) Release() {
	for {
		cur := b.slack.Load()
		if cur >= b.total {
			return
		}
		if b.slack.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}
