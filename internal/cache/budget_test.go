// Tests of the shared admission budget: the clamped Release (a mismatched
// release must not inflate the aggregate cache cap) and the pressure-ranked
// lending that makes lukewarm shards hand slack back before hot shards
// evict.
package cache

import (
	"testing"

	"apcache/internal/interval"
)

func TestBudgetReleaseClampedToTotal(t *testing.T) {
	b := NewBudget(2)
	// Mismatched releases on a full pool are dropped, not banked.
	for i := 0; i < 5; i++ {
		b.Release()
	}
	if got := b.Slack(); got != 2 {
		t.Fatalf("Slack after over-release = %d, want 2 (clamped to total)", got)
	}
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatalf("pool of 2 did not yield 2 slots")
	}
	if b.TryAcquire() {
		t.Fatalf("over-released pool yielded a third slot: aggregate cap inflated")
	}
	// Legitimate releases restore exactly the constructed total.
	for i := 0; i < 10; i++ {
		b.Release()
	}
	if got := b.Slack(); got != 2 {
		t.Errorf("Slack = %d, want 2", got)
	}
}

func TestBudgetZeroTotalStaysEmpty(t *testing.T) {
	b := NewBudget(0)
	b.Release()
	if b.TryAcquire() {
		t.Fatalf("zero-slot budget yielded a slot after a stray Release")
	}
}

func TestBudgetAcquireFlagsCalmestBorrower(t *testing.T) {
	b := NewBudget(2)
	calm := b.Register()
	warm := b.Register()
	hot := b.Register()
	// calm and warm each borrow one slot, draining the pool.
	if !b.Acquire(calm) || !b.Acquire(warm) {
		t.Fatalf("could not drain pool of 2")
	}
	warm.pressure.Store(3 * pressureBump)
	hot.pressure.Store(10 * pressureBump)
	// The hot member's failed acquisition must flag the calmest borrower
	// (calm, pressure 0), not the warm one.
	if b.Acquire(hot) {
		t.Fatalf("acquisition succeeded on an empty pool")
	}
	if calm.Owed() != 1 {
		t.Errorf("calm.Owed = %d, want 1", calm.Owed())
	}
	if warm.Owed() != 0 {
		t.Errorf("warm.Owed = %d, want 0 (warm is not the calmest borrower)", warm.Owed())
	}
}

func TestBudgetReclaimHysteresis(t *testing.T) {
	b := NewBudget(1)
	a := b.Register()
	z := b.Register()
	if !b.Acquire(a) {
		t.Fatalf("could not drain pool")
	}
	// Both members equally hot: no reclaim — two peers must not steal the
	// same slot back and forth.
	a.pressure.Store(5 * pressureBump)
	z.pressure.Store(5 * pressureBump)
	if b.Acquire(z) {
		t.Fatalf("acquisition succeeded on an empty pool")
	}
	if a.Owed() != 0 {
		t.Errorf("equally hot borrower flagged for reclaim (owed %d)", a.Owed())
	}
	// Strictly hotter requester does reclaim.
	z.pressure.Store(6 * pressureBump)
	b.Acquire(z)
	if a.Owed() != 1 {
		t.Errorf("calmer borrower not flagged (owed %d, want 1)", a.Owed())
	}
}

func TestBudgetNeverReclaimsNonBorrowers(t *testing.T) {
	b := NewBudget(1)
	idle := b.Register() // never borrows
	hot := b.Register()
	if !b.TryAcquire() {
		t.Fatalf("could not drain pool")
	}
	hot.pressure.Store(pressureBump)
	b.Acquire(hot)
	if idle.Owed() != 0 {
		t.Errorf("member with no loan flagged for reclaim (owed %d)", idle.Owed())
	}
}

// TestSharedCacheBudgetBorrowing: a full shard borrows the pool before it
// evicts, a shard that finds the pool empty evicts at its base, and a Drop
// hands a borrowed slot back for the other shard to claim.
func TestSharedCacheBudgetBorrowing(t *testing.T) {
	pool := NewBudget(3)
	a := NewShared(1, pool)
	b := NewShared(1, pool)
	// Shard a grows past its base by borrowing the whole pool.
	for k := 0; k < 4; k++ {
		a.Put(k, interval.Centered(float64(k), 1), 1)
	}
	if a.Len() != 4 || a.Borrowed() != 3 || a.Capacity() != 4 {
		t.Fatalf("a len/borrowed/cap = %d/%d/%d, want 4/3/4", a.Len(), a.Borrowed(), a.Capacity())
	}
	if pool.Slack() != 0 {
		t.Fatalf("pool slack %d, want 0", pool.Slack())
	}
	// Shard b is now capped at its base: admission falls back to eviction.
	b.Put(100, interval.Centered(0, 8), 8)
	if evicted, did := b.Put(101, interval.Centered(0, 2), 2); !did || evicted != 100 {
		t.Errorf("b.Put(101) = %d, %v; want eviction of 100", evicted, did)
	}
	if b.Borrowed() != 0 {
		t.Errorf("b borrowed %d slots from an empty pool", b.Borrowed())
	}
	// Dropping from a returns slots for b to claim.
	a.Drop(0)
	if pool.Slack() != 1 || a.Borrowed() != 2 {
		t.Fatalf("after drop: slack %d, a borrowed %d; want 1, 2", pool.Slack(), a.Borrowed())
	}
	b.Put(102, interval.Centered(0, 9), 9)
	if b.Len() != 2 || b.Borrowed() != 1 {
		t.Errorf("b len/borrowed = %d/%d, want 2/1 after reclaiming slack", b.Len(), b.Borrowed())
	}
}

// TestSharedCacheRepaysReclaimedSlots drives the full lending loop through two
// shared caches on one budget: the lukewarm cache borrows the pool dry,
// the hot cache's eviction pressure flags a reclaim, and the lukewarm
// cache's next write returns the slot — which the hot cache then borrows
// instead of evicting again.
func TestSharedCacheRepaysReclaimedSlots(t *testing.T) {
	iv := func(w float64) interval.Interval { return interval.Interval{Lo: 0, Hi: w} }
	b := NewBudget(1)
	luke := NewShared(1, b)
	hot := NewShared(1, b)

	luke.Put(0, iv(1), 1) // fills the base slot
	luke.Put(1, iv(2), 2) // borrows the pool's only slot
	if luke.Borrowed() != 1 || b.Slack() != 0 {
		t.Fatalf("setup: borrowed=%d slack=%d, want 1, 0", luke.Borrowed(), b.Slack())
	}

	// The hot cache fills its base, then churns: every further admission
	// finds the pool empty and must evict, bumping its pressure. The first
	// failed acquisition already flags the lukewarm cache.
	hot.Put(100, iv(9), 9)
	for k := 101; k < 105; k++ {
		hot.Put(k, iv(float64(105-k)), float64(105-k)) // narrower each time: evicts
	}
	if hot.Stats().Evicts == 0 {
		t.Fatalf("hot cache never evicted; churn setup broken")
	}
	if luke.lender.Owed() == 0 {
		t.Fatalf("lukewarm borrower never flagged for reclaim")
	}

	// The lukewarm cache's next write repays: one of its entries is evicted
	// (it is full at base+1) and the slot returns to the pool. The write is
	// to its victim, key 1, which must survive: key 0 goes instead.
	luke.Put(1, iv(2), 2)
	if luke.Borrowed() != 0 {
		t.Errorf("lukewarm cache still holds the loan (borrowed %d)", luke.Borrowed())
	}
	if b.Slack() != 1 {
		t.Fatalf("repaid slot not in the pool (slack %d)", b.Slack())
	}
	if got := luke.Keys(); len(got) != 1 || got[0] != 1 {
		t.Errorf("lukewarm cache holds %v after repayment, want [1]", got)
	}

	// The hot cache's next admission borrows the repaid slot: no eviction.
	evBefore := hot.Stats().Evicts
	hot.Put(200, iv(100), 100) // wide candidate would lose the competition
	if hot.Stats().Evicts != evBefore {
		t.Errorf("hot cache evicted despite repaid slack")
	}
	if !hot.Contains(200) {
		t.Errorf("hot cache did not admit key 200 via the repaid slot")
	}
	if hot.Borrowed() != 1 {
		t.Errorf("hot.Borrowed = %d, want 1", hot.Borrowed())
	}
}

// TestSharedCacheRepayPrefersFreeCapacity: a lukewarm borrower with headroom
// (live below capacity) must repay without evicting anything.
func TestSharedCacheRepayPrefersFreeCapacity(t *testing.T) {
	iv := interval.Interval{Lo: 0, Hi: 1}
	b := NewBudget(1)
	luke := NewShared(2, b)
	hot := NewShared(1, b)
	luke.Put(0, iv, 1)
	luke.Put(1, iv, 1)
	luke.Put(2, iv, 1) // borrows: live 3 = base 2 + 1
	luke.Drop(2)       // live 2, but Drop already returned the loan
	// Re-borrow so a loan is outstanding while live < capacity.
	if !b.Acquire(luke.lender) {
		t.Fatalf("could not re-borrow")
	}
	hot.Put(100, iv, 1)
	hot.lender.pressure.Store(pressureBump)
	b.Acquire(hot.lender) // flags luke
	evBefore := luke.Stats().Evicts
	luke.Put(0, iv, 1) // repays from free capacity
	if luke.Stats().Evicts != evBefore {
		t.Errorf("repayment evicted despite free capacity")
	}
	if luke.Borrowed() != 0 || b.Slack() != 1 {
		t.Errorf("loan not repaid: borrowed=%d slack=%d", luke.Borrowed(), b.Slack())
	}
	if luke.Len() != 2 {
		t.Errorf("len = %d, want 2 (no entry lost)", luke.Len())
	}
}
