package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Budget is a shared pool of spare cache slots that a group of shard caches
// draws on before resorting to eviction. Splitting a capacity cap evenly
// across shards wastes it under skew: a hot shard evicts at its static cap
// while a cold shard's share sits idle. With a Budget, each shard reserves
// only a small guaranteed base and borrows the rest from the pool on demand
// (one slot per admission beyond the base), returning slots as entries are
// dropped (Release). The aggregate bound — sum of bases plus the pool — is
// exact: the group can never hold more entries than the configured total,
// but any single shard may grow far past its even share if the others leave
// slack.
//
// Beyond the FCFS slack counter, the budget ranks its borrowers by recent
// eviction pressure. Each borrowing cache registers a Lender; when a shard
// under pressure finds the pool empty, the budget flags the calmest other
// borrower (lowest pressure, strictly below the requester's) to return one
// of its loaned slots, which it repays on its next write. Lukewarm shards
// thus hand slack back before hot shards are forced to evict, instead of
// the first borrower keeping its loan forever.
//
// Hot-path operations (Acquire, Release) are lock-free; Register takes a
// mutex but runs only at cache construction. A Budget is safe for
// concurrent use from every shard.
type Budget struct {
	slack atomic.Int64
	total int64

	// members is the registered-lender list behind an atomic pointer so
	// Acquire's reclaim scan never locks; regMu serializes Register's
	// copy-on-write appends.
	regMu   sync.Mutex
	members atomic.Pointer[[]*Lender]
}

// Lender is one borrower's account with a shared Budget: how many pool
// slots it currently holds (borrowed), how many of those the budget has
// flagged for return (owed), and its recent eviction pressure (the ranking
// signal). borrowed and pressure are written by the owning cache under its
// owner's lock; owed is bumped by other shards' Acquire calls, and the
// ranking reads all three without that lock, so all three are atomics.
type Lender struct {
	borrowed atomic.Int64
	owed     atomic.Int64
	pressure atomic.Int64
}

// pressureBump is the pressure added per capacity-pressure event (eviction
// or rejection). Put decays pressure by 1/16 per write, so a shard stops
// looking hot within a few dozen quiet writes of its last eviction.
const pressureBump = 1 << 10

// Borrowed returns how many pool slots the lender currently holds.
func (l *Lender) Borrowed() int { return int(l.borrowed.Load()) }

// Owed returns how many of the lender's slots are flagged for return.
func (l *Lender) Owed() int { return int(l.owed.Load()) }

// bump records one capacity-pressure event (evict or reject).
func (l *Lender) bump() { l.pressure.Add(pressureBump) }

// decay ages the pressure score by one write. Only the owning cache's lock
// holder calls it, so the load/store pair cannot race another decay.
func (l *Lender) decay() {
	if p := l.pressure.Load(); p > 0 {
		l.pressure.Store(p - (p+15)/16)
	}
}

// NewBudget returns a pool of the given number of slots (non-negative).
func NewBudget(slots int) *Budget {
	if slots < 0 {
		panic(fmt.Sprintf("cache: negative budget %d", slots))
	}
	b := &Budget{total: int64(slots)}
	b.slack.Store(int64(slots))
	empty := []*Lender{}
	b.members.Store(&empty)
	return b
}

// Register adds a borrower to the budget's lender ranking and returns its
// account. Each borrowing cache registers exactly once, at construction.
func (b *Budget) Register() *Lender {
	l := &Lender{}
	b.regMu.Lock()
	old := *b.members.Load()
	next := make([]*Lender, len(old)+1)
	copy(next, old)
	next[len(old)] = l
	b.members.Store(&next)
	b.regMu.Unlock()
	return l
}

// TryAcquire claims one slot without a lender account, reporting whether
// one was available. Borrowers with an account use Acquire, which also
// feeds the pressure ranking.
func (b *Budget) TryAcquire() bool {
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

// Acquire claims one slot for m, reporting success. When the pool is empty
// it instead flags the calmest other borrower — lowest eviction pressure,
// and strictly calmer than m — to return a loaned slot (repaid on that
// borrower's next write), so the next acquisition under sustained pressure
// finds slack that was idling on a lukewarm shard.
func (b *Budget) Acquire(m *Lender) bool {
	if b.TryAcquire() {
		m.borrowed.Add(1)
		return true
	}
	b.flagReclaim(m)
	return false
}

// flagReclaim marks one loaned slot of the lowest-pressure borrower (other
// than the requester) for return. The strict pressure comparison is the
// hysteresis that stops two equally hot shards from endlessly stealing the
// same slot from each other.
func (b *Budget) flagReclaim(requester *Lender) {
	var calmest *Lender
	var calmestP int64
	for _, l := range *b.members.Load() {
		if l == requester {
			continue
		}
		if l.borrowed.Load() <= l.owed.Load() {
			continue // nothing left to reclaim from this borrower
		}
		p := l.pressure.Load()
		if calmest == nil || p < calmestP {
			calmest, calmestP = l, p
		}
	}
	if calmest == nil {
		return
	}
	if requester != nil && calmestP >= requester.pressure.Load() {
		return // no borrower is calmer than the requester; let it evict
	}
	calmest.owed.Add(1)
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

// releaseFrom is Release for an accounted borrower: the loan is decremented
// first, and an outstanding reclaim flag is satisfied by the return.
func (b *Budget) releaseFrom(m *Lender) {
	m.borrowed.Add(-1)
	if m.owed.Load() > 0 {
		m.owed.Add(-1)
	}
	b.Release()
}

// Slack returns the number of currently unclaimed slots.
func (b *Budget) Slack() int { return int(b.slack.Load()) }
