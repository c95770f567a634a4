// Tests of the shared admission budget: the clamped Release (a mismatched
// release must not inflate the aggregate cache cap) and first-come lending
// through shared caches, where only a Drop hands a slot back.
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
	if got := b.slack.Load(); got != 2 {
		t.Fatalf("Slack after over-release = %d, want 2 (clamped to total)", got)
	}
	if !b.Acquire() || !b.Acquire() {
		t.Fatalf("pool of 2 did not yield 2 slots")
	}
	if b.Acquire() {
		t.Fatalf("over-released pool yielded a third slot: aggregate cap inflated")
	}
	// Legitimate releases restore exactly the constructed total.
	for i := 0; i < 10; i++ {
		b.Release()
	}
	if got := b.slack.Load(); got != 2 {
		t.Errorf("Slack = %d, want 2", got)
	}
}

func TestBudgetZeroTotalStaysEmpty(t *testing.T) {
	b := NewBudget(0)
	b.Release()
	if b.Acquire() {
		t.Fatalf("zero-slot budget yielded a slot after a stray Release")
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
	if pool.slack.Load() != 0 {
		t.Fatalf("pool slack %d, want 0", pool.slack.Load())
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
	if pool.slack.Load() != 1 || a.Borrowed() != 2 {
		t.Fatalf("after drop: slack %d, a borrowed %d; want 1, 2", pool.slack.Load(), a.Borrowed())
	}
	b.Put(102, interval.Centered(0, 9), 9)
	if b.Len() != 2 || b.Borrowed() != 1 {
		t.Errorf("b len/borrowed = %d/%d, want 2/1 after reclaiming slack", b.Len(), b.Borrowed())
	}
}
