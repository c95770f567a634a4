package cache

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"apcache/internal/interval"
	"apcache/internal/shard"
	"apcache/internal/stats"
)

// SeqCache is the concurrent variant of Cache used by the sharded Store: the
// same admission and eviction policy (widest original width loses), but with
// a read path that takes no lock of any kind.
//
// Concurrency contract: WRITERS MUST BE EXTERNALLY SERIALIZED — the Store
// calls Put/Drop/Entries only while holding the owning shard's mutex.
// Readers (Get, Peek, Contains, Len, Capacity, Stats) may run from any
// goroutine at any time, including concurrently with a writer, and never
// block it.
//
// Two structures make that safe:
//
//   - Each entry is a seqlock: an even/odd version counter beside the
//     interval's endpoint bits. The writer bumps the counter to odd, stores
//     the new endpoints, and bumps it back to even; a reader rereads until it
//     observes the same even version on both sides of its loads, so it can
//     never return a torn [Lo, Hi] pair mixing two refreshes.
//
//   - The key index is an open-addressing table of atomic slots probed with
//     the HIGH bits of the shard hash (the low bits are constant within a
//     shard). Slot states only move empty -> full -> tombstone -> full within
//     one table, so a reader that finds an empty slot can safely conclude a
//     miss; growth and tombstone compaction build a fresh table and publish
//     it with one atomic pointer store, leaving in-flight readers on a frozen
//     (and therefore still consistent, at worst slightly stale) snapshot.
//     Because a tombstoned slot can be re-used for a different key while a
//     reader is parked on it, entries carry their own immutable key and the
//     reader re-validates against it after resolving the pointer.
//
// A reader racing a writer may observe the cache as it was an instant ago —
// an entry that was just dropped, or not yet the one just admitted. That is
// the same linearization slack a mutex would hide, and the approximations
// themselves remain exactly as valid as the protocol guarantees.
type SeqCache struct {
	base   int     // guaranteed slots, before any borrowing
	budget *Budget // shared slack pool; nil means the base is a hard cap
	lender *Lender // this cache's borrowing account with the budget

	table atomic.Pointer[seqTable]

	// Reader-bumped hit/miss accounting, striped by key bits across padded
	// counter blocks. A single pair of atomics here would put every reader
	// of the shard on one cache line and serialize the lock-free Get path
	// almost as thoroughly as the mutex it replaced; with the stripes,
	// concurrent readers of different keys land on different lines and the
	// counters stay exact (Stats sums the stripes).
	hitmiss *stats.Stripes

	// Writer-owned state; live is an atomic only so lock-free
	// Stats/Len/Capacity readers can load it. The borrowed-slot count lives
	// in the lender account, shared with the budget's pressure ranking.
	live    atomic.Int64
	tombs   int
	admits  atomic.Int64
	evicts  atomic.Int64
	rejects atomic.Int64
}

// Slot states. Within one table a slot only ever moves empty -> full and
// full <-> tombstone; empty slots stay empty until the table is replaced, so
// probe chains never shrink under a reader.
const (
	slotEmpty uint32 = iota
	slotTomb
	slotFull
)

// seqSlot is padded to 32 bytes: exactly two slots per cache line, so a
// probe's three loads never span a line boundary.
type seqSlot struct {
	state atomic.Uint32
	key   atomic.Int64
	e     atomic.Pointer[seqEntry]
	_     [32 - 24]byte
}

// seqTable is one immutable-size probe table. shift positions the high hash
// bits onto the slot index.
type seqTable struct {
	shift uint
	slots []seqSlot
}

// seqEntry is one cached approximation behind a seqlock. key never changes
// after creation; the interval and width fields change only under the
// version protocol. The struct is padded to exactly one cache line (and so
// allocated line-aligned by the size-class allocator): a refresh writing one
// entry must not invalidate readers parked on a neighboring entry, and a
// reader's [seq, lo, hi] loads must not straddle two lines.
type seqEntry struct {
	key  int64
	seq  atomic.Uint32
	lo   atomic.Uint64
	hi   atomic.Uint64
	orig atomic.Uint64 // original (pre-threshold) width bits, the eviction rank
	_    [64 - 40]byte
}

// write installs a new approximation. Writer-only (externally serialized).
func (e *seqEntry) write(iv interval.Interval, originalWidth float64) {
	e.seq.Add(1) // odd: readers hold off
	e.lo.Store(math.Float64bits(iv.Lo))
	e.hi.Store(math.Float64bits(iv.Hi))
	e.orig.Store(math.Float64bits(originalWidth))
	e.seq.Add(1) // even again: new value published
}

// read returns a consistent [Lo, Hi] snapshot, retrying torn sequences.
func (e *seqEntry) read() interval.Interval {
	for spin := 0; ; spin++ {
		s1 := e.seq.Load()
		if s1&1 == 0 {
			lo := e.lo.Load()
			hi := e.hi.Load()
			if e.seq.Load() == s1 {
				return interval.Interval{Lo: math.Float64frombits(lo), Hi: math.Float64frombits(hi)}
			}
		}
		if spin%16 == 15 {
			// The writer holding the odd sequence was preempted; let it run.
			runtime.Gosched()
		}
	}
}

// originalWidth reads the eviction rank. Writer-only contexts may also read
// it directly; going through the seqlock keeps it safe from either side.
func (e *seqEntry) originalWidth() float64 {
	for spin := 0; ; spin++ {
		s1 := e.seq.Load()
		if s1&1 == 0 {
			w := e.orig.Load()
			if e.seq.Load() == s1 {
				return math.Float64frombits(w)
			}
		}
		if spin%16 == 15 {
			runtime.Gosched()
		}
	}
}

const minSeqTable = 16

// Read-counter striping: stripes and the counters per stripe.
const (
	readStripes = 32
	cHit        = 0
	cMiss       = 1
)

// readStripe picks a key's hit/miss stripe from mix bits that neither the
// shard selector (low bits) nor the probe table (top bits shifted by table
// size) pins down for typical sizes.
func readStripe(h uint64) int {
	return int((h >> 16) & (readStripes - 1))
}

// NewSeq returns a concurrent cache with the given guaranteed base capacity,
// optionally borrowing extra slots from a shared budget. Base must be
// positive.
func NewSeq(base int, budget *Budget) *SeqCache {
	if base <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", base))
	}
	c := &SeqCache{base: base, budget: budget, hitmiss: stats.NewStripes(readStripes, 2)}
	if budget != nil {
		c.lender = budget.Register()
	}
	c.table.Store(newSeqTable(minSeqTable))
	return c
}

func newSeqTable(size int) *seqTable {
	return &seqTable{shift: uint(64 - log2(size)), slots: make([]seqSlot, size)}
}

// log2 of a power of two.
func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Base returns the guaranteed (pre-borrowing) capacity.
func (c *SeqCache) Base() int { return c.base }

// Capacity returns the current maximum entry count: the guaranteed base plus
// whatever the cache has borrowed from the shared budget. Unlike the
// sequential Cache it is a moving bound, growing under pressure while the
// pool has slack and shrinking as entries are dropped or reclaimed by the
// budget's pressure ranking.
func (c *SeqCache) Capacity() int { return c.base + c.Borrowed() }

// Borrowed returns how many slots are currently on loan from the budget.
func (c *SeqCache) Borrowed() int {
	if c.lender == nil {
		return 0
	}
	return c.lender.Borrowed()
}

// Len returns the current number of entries.
func (c *SeqCache) Len() int { return int(c.live.Load()) }

// lookup returns the live entry for key, or nil, without touching counters.
// Safe from any goroutine.
func (c *SeqCache) lookup(key int) *seqEntry {
	return c.lookupHash(key, shard.Mix(key))
}

// lookupHash is lookup with the key's mix precomputed, so the hot Get path
// hashes each key exactly once.
func (c *SeqCache) lookupHash(key int, h uint64) *seqEntry {
	t := c.table.Load()
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for probes := 0; probes <= mask; probes++ {
		s := &t.slots[i]
		switch s.state.Load() {
		case slotEmpty:
			return nil
		case slotFull:
			if s.key.Load() == int64(key) {
				// The slot may be recycled for a different key between the
				// state and pointer loads; the entry's immutable key settles it.
				if e := s.e.Load(); e != nil && e.key == int64(key) {
					return e
				}
			}
		}
		i = (i + 1) & mask
	}
	return nil
}

// Get returns the approximation for key. Lock-free; never blocks a writer.
func (c *SeqCache) Get(key int) (interval.Interval, bool) {
	h := shard.Mix(key)
	if e := c.lookupHash(key, h); e != nil {
		iv := e.read()
		c.hitmiss.Inc(readStripe(h), cHit)
		return iv, true
	}
	c.hitmiss.Inc(readStripe(h), cMiss)
	return interval.Interval{}, false
}

// Peek is Get without touching the hit/miss statistics.
func (c *SeqCache) Peek(key int) (interval.Interval, bool) {
	if e := c.lookup(key); e != nil {
		return e.read(), true
	}
	return interval.Interval{}, false
}

// Contains reports whether key is cached without touching statistics.
func (c *SeqCache) Contains(key int) bool { return c.lookup(key) != nil }

// findSlot returns the index of key's live slot in t, or -1. Writer-only.
func (c *SeqCache) findSlot(t *seqTable, key int) int {
	mask := len(t.slots) - 1
	i := int(shard.Mix(key) >> t.shift)
	for probes := 0; probes <= mask; probes++ {
		s := &t.slots[i]
		switch s.state.Load() {
		case slotEmpty:
			return -1
		case slotFull:
			if s.key.Load() == int64(key) {
				return i
			}
		}
		i = (i + 1) & mask
	}
	return -1
}

// insert places a new entry, growing or compacting the table first if the
// load factor (live plus tombstones) would exceed 3/4. Writer-only; the key
// must not already be present.
func (c *SeqCache) insert(e *seqEntry) {
	t := c.table.Load()
	if (int(c.live.Load())+c.tombs+1)*4 > len(t.slots)*3 {
		t = c.rebuild()
	}
	mask := len(t.slots) - 1
	i := int(shard.Mix(int(e.key)) >> t.shift)
	firstTomb := -1
	for {
		s := &t.slots[i]
		st := s.state.Load()
		if st == slotEmpty {
			if firstTomb >= 0 {
				i, s = firstTomb, &t.slots[firstTomb]
				c.tombs--
			}
			s.key.Store(e.key)
			s.e.Store(e)
			s.state.Store(slotFull) // publish last: readers check state first
			c.live.Add(1)
			return
		}
		if st == slotTomb && firstTomb < 0 {
			firstTomb = i
		}
		i = (i + 1) & mask
	}
}

// rebuild publishes a fresh table sized for the live entries (doubling
// headroom, tombstones discarded). In-flight readers keep probing the frozen
// old table, which remains internally consistent forever.
func (c *SeqCache) rebuild() *seqTable {
	old := c.table.Load()
	size := minSeqTable
	for size < 2*(int(c.live.Load())+1) { // target load factor <= 1/2 post-rebuild
		size <<= 1
	}
	t := newSeqTable(size)
	mask := size - 1
	for si := range old.slots {
		s := &old.slots[si]
		if s.state.Load() != slotFull {
			continue
		}
		e := s.e.Load()
		i := int(shard.Mix(int(e.key)) >> t.shift)
		for t.slots[i].state.Load() == slotFull {
			i = (i + 1) & mask
		}
		t.slots[i].key.Store(e.key)
		t.slots[i].e.Store(e)
		t.slots[i].state.Store(slotFull)
	}
	c.tombs = 0
	c.table.Store(t)
	return t
}

// removeAt tombstones slot i of the current table. Writer-only.
func (c *SeqCache) removeAt(t *seqTable, i int) {
	t.slots[i].state.Store(slotTomb)
	c.tombs++
	c.live.Add(-1)
}

// widestEntry returns the widest resident entry's key, slot index, and
// original width (ties broken toward the smaller key), skipping the exclude
// key; (-1 index) when no eligible entry exists. Writer-only.
func (c *SeqCache) widestEntry(t *seqTable, exclude int) (key, idx int, width float64) {
	key, idx, width = 0, -1, math.Inf(-1)
	for i := range t.slots {
		s := &t.slots[i]
		if s.state.Load() != slotFull {
			continue
		}
		e := s.e.Load()
		k := int(e.key)
		if k == exclude {
			continue
		}
		w := e.originalWidth()
		if w > width || (w == width && k < key) {
			key, idx, width = k, i, w
		}
	}
	return key, idx, width
}

// repay settles any slots the budget has flagged for return (a hotter shard
// found the pool empty), before the current write consumes space: unused
// borrowed capacity is handed back directly, and a full cache evicts its
// widest entry — excluding the key being written — to free the slot. Each
// returned slot releases pool slack for the flagging shard's next
// acquisition. Writer-only.
func (c *SeqCache) repay(t *seqTable, exclude int) {
	if c.lender == nil {
		return
	}
	for c.lender.owed.Load() > 0 && c.lender.borrowed.Load() > 0 {
		if int(c.live.Load()) >= c.Capacity() {
			_, idx, _ := c.widestEntry(t, exclude)
			if idx < 0 {
				break // only the excluded key is resident; keep the loan
			}
			c.removeAt(t, idx)
			c.evicts.Add(1)
		}
		c.budget.releaseFrom(c.lender)
	}
	if c.lender.borrowed.Load() == 0 && c.lender.owed.Load() > 0 {
		// Over-flagged: nothing is on loan anymore, so the residual owed
		// count must not linger and tax future borrowing.
		c.lender.owed.Store(0)
	}
}

// Put installs an approximation for key, with the same policy as
// Cache.Put: in-place replacement for resident keys; admission while below
// capacity; then one borrowed budget slot if the shared pool has slack; and
// only then the eviction competition, where the widest original width loses
// — possibly the candidate itself, which is then rejected.
//
// Every Put first repays slots the budget has reclaimed for hotter shards
// and ages this cache's eviction-pressure score; evictions and rejections
// bump the score, ranking the cache in the budget's lending order.
//
// Put returns the key that was evicted to make room, or (0, false) if
// nothing was evicted. Writer-only.
func (c *SeqCache) Put(key int, iv interval.Interval, originalWidth float64) (evicted int, didEvict bool) {
	if math.IsNaN(originalWidth) || originalWidth < 0 {
		panic(fmt.Sprintf("cache: bad original width %g", originalWidth))
	}
	t := c.table.Load()
	if c.lender != nil {
		c.lender.decay()
		c.repay(t, key)
	}
	if i := c.findSlot(t, key); i >= 0 {
		t.slots[i].e.Load().write(iv, originalWidth)
		return 0, false
	}
	admit := func() {
		e := &seqEntry{key: int64(key)}
		e.write(iv, originalWidth)
		c.insert(e)
		c.admits.Add(1)
	}
	if int(c.live.Load()) < c.Capacity() {
		admit()
		return 0, false
	}
	if c.lender != nil && c.budget.Acquire(c.lender) {
		admit()
		return 0, false
	}
	// Full and no slack anywhere: eviction competition over original widths.
	widestKey, widestIdx, widest := c.widestEntry(t, key)
	if widestIdx < 0 || originalWidth >= widest {
		// The candidate is at least as wide as every resident: reject it.
		c.rejects.Add(1)
		if c.lender != nil {
			c.lender.bump()
		}
		return 0, false
	}
	c.removeAt(t, widestIdx)
	c.evicts.Add(1)
	if c.lender != nil {
		c.lender.bump()
	}
	admit()
	return widestKey, true
}

// Drop removes key if present, returning whether it was cached. A borrowed
// slot freed by the drop goes back to the shared budget (settling any
// reclaim flag first). Writer-only.
func (c *SeqCache) Drop(key int) bool {
	t := c.table.Load()
	i := c.findSlot(t, key)
	if i < 0 {
		return false
	}
	c.removeAt(t, i)
	c.evicts.Add(1)
	if c.lender != nil && c.lender.borrowed.Load() > 0 {
		c.budget.releaseFrom(c.lender)
	}
	return true
}

// Keys returns the cached keys in ascending order. Writer-only.
func (c *SeqCache) Keys() []int {
	t := c.table.Load()
	keys := make([]int, 0, c.Len())
	for i := range t.slots {
		if t.slots[i].state.Load() == slotFull {
			keys = append(keys, int(t.slots[i].e.Load().key))
		}
	}
	sort.Ints(keys)
	return keys
}

// Entries returns copies of all entries ordered by ascending key. Writer-only.
func (c *SeqCache) Entries() []Entry {
	t := c.table.Load()
	out := make([]Entry, 0, c.Len())
	for i := range t.slots {
		if t.slots[i].state.Load() != slotFull {
			continue
		}
		e := t.slots[i].e.Load()
		out = append(out, Entry{Key: int(e.key), Interval: e.read(), OriginalWidth: e.originalWidth()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Stats returns a snapshot of the counters. Lock-free.
func (c *SeqCache) Stats() Stats {
	return Stats{
		Hits:    int(c.hitmiss.Sum(cHit)),
		Misses:  int(c.hitmiss.Sum(cMiss)),
		Admits:  int(c.admits.Load()),
		Evicts:  int(c.evicts.Load()),
		Rejects: int(c.rejects.Load()),
	}
}
