// Package source implements the server side of the approximate caching
// protocol: it hosts exact numeric values, tracks the interval approximation
// each cache holds for each value, detects invalidation on updates
// (value-initiated refreshes), serves exact reads (query-initiated
// refreshes), and runs one width policy per (cache, value) pair — the
// adaptive controller of internal/core, or any other core.WidthPolicy.
//
// Per the paper a cache never sends a message about an eviction, so a
// subscription outlives the entry it fed and the source keeps adapting its
// width. What a host may do is tell the source — inside a frame it was
// sending anyway — that a cache does not hold a key: Mute. An honoured mute
// deletes the pair, as Unsubscribe does, so a pair is either live or gone;
// the next Read or Subscribe installs it afresh at the factory's width. Only
// the networked server mutes. The embedded Store shares a lock with its cache
// and simply does not install a refresh for a key the cache has evicted; the
// study code under internal/study keeps the paper's silent-eviction
// behaviour untouched.
//
// Muting is only sound if the cache really does not hold the key, and stays
// that way until it next asks. The networked host guarantees it with four
// rules: the cache side's R1–R3, stated in internal/cacheside, and the
// source's R4. R4: every Read and Subscribe stamps the subscription with the
// number of the reply that will carry it (ReadMarked, SubscribeMarked), and
// Mute is refused while that mark is above Seen.
//
// Safety: by R1 only a reply can make the client hold K. Mute(K, Seen)
// deletes the pair only if every reply that carried K so far is numbered <=
// Seen, so the client had installed each of them and still did not hold K
// when it sampled. Any later reply for K comes from a Read or Subscribe
// served after the Mute, which installs a new pair first. So every key a
// client holds has a pair. No assumption is made about the order in which
// concurrent callers' frames reach the wire.
package source

import (
	"fmt"
	"math"

	"apcache/internal/core"
	"apcache/internal/interval"
)

// PolicyFactory builds the width policy for a newly subscribed
// (cache, value) pair.
type PolicyFactory func(cacheID, key int) core.WidthPolicy

// Refresh is one message from the source to a cache carrying a fresh
// approximation (and, for query-initiated refreshes, the exact value the
// query consumes).
type Refresh struct {
	CacheID  int               // the destination cache
	Key      int               // the value's key
	Value    float64           // the current exact value
	Interval interval.Interval // the new approximation to install
	// OriginalWidth is the policy's pre-threshold width, the cache's eviction rank.
	OriginalWidth float64
}

type subscription struct {
	policy core.WidthPolicy
	iv     interval.Interval
	// cap bounds the width of every approximation shipped on this
	// subscription: +Inf from install on, 0 for exact values. The
	// continuous-query engine sets it to the key's share of a query's
	// precision budget; the policy keeps adapting underneath, the cap only
	// clips what ships.
	cap float64
	// mark is the caller's ordering token of the last reply that carried this
	// pair; Mute is refused below it (see the package comment).
	mark uint64
}

// clamped narrows iv to the subscription's width cap. The clamp intersects
// with the cap-wide interval centered on the exact value v, so the result
// still contains v, stays inside iv where possible, and handles unbounded
// policy intervals (a policy width past lambda1).
func (sub *subscription) clamped(iv interval.Interval, v float64) interval.Interval {
	if iv.Width() <= sub.cap {
		return iv
	}
	return iv.Intersect(interval.Centered(v, sub.cap))
}

// steer keeps the policy's internal width from running away past the cap:
// growth is pointless above it (every shipped interval is clipped), and
// capping the learned width means a later cap raise resumes growth from
// the cap rather than jumping to a stale huge width.
func (sub *subscription) steer() {
	type widthSetter interface{ SetWidth(w float64) }
	if sub.policy.Width() > sub.cap {
		if ws, ok := sub.policy.(widthSetter); ok {
			ws.SetWidth(sub.cap)
		}
	}
}

// refresh adjusts the policy for one refresh of the given kind — above
// meaning v escaped upward, which only a policy with independent lower and
// upper widths reads — and returns the interval it ships, clamped to the cap,
// which the pair now holds.
func (sub *subscription) refresh(kind core.RefreshKind, above bool, v float64) interval.Interval {
	sub.iv = sub.clamped(sub.policy.RefreshInterval(kind, above, v), v)
	sub.steer()
	return sub.iv
}

// keySub is one cache's subscription to one key. A key's subscriber list is
// a small slice — typically one cache in-process, a handful of clients on a
// server — so a linear scan beats an inner map and, more importantly, Set
// iterates it without a map-iterator setup. Entries are values and an
// emptied list keeps its array, so re-installing a dropped pair allocates nothing.
type keySub struct {
	cacheID int
	sub     subscription
}

// hosted is one key's record: its exact value and its subscribers.
type hosted struct {
	v    float64
	subs []keySub
}

// sub returns cacheID's subscription, or nil; it points into the list.
func (h *hosted) sub(cacheID int) *subscription {
	for i := range h.subs {
		if h.subs[i].cacheID == cacheID {
			return &h.subs[i].sub
		}
	}
	return nil
}

// Source hosts a set of exact values and their per-cache subscriptions. It
// is not safe for concurrent use; the networked server serializes access.
// Each key has one record, its value and its subscribers, so an operation
// finds its key with one map lookup, and Set, the hot path, walks only the
// updated key's subscribers.
type Source struct {
	keys    map[int]*hosted
	nSubs   int
	factory PolicyFactory
	scratch []Refresh // Set's reusable result buffer
}

// New returns an empty source using factory for new subscriptions.
func New(factory PolicyFactory) *Source {
	if factory == nil {
		panic("source: nil PolicyFactory")
	}
	return &Source{keys: make(map[int]*hosted), factory: factory}
}

// host returns key's record, making an empty one for a new key.
func (s *Source) host(key int) *hosted {
	h := s.keys[key]
	if h == nil {
		h = &hosted{}
		s.keys[key] = h
	}
	return h
}

// SetInitial installs a value without generating refreshes; use it to seed
// the source before subscriptions exist.
func (s *Source) SetInitial(key int, v float64) { s.host(key).v = v }

// Value returns the current exact value for key.
func (s *Source) Value(key int) (float64, bool) {
	if h := s.keys[key]; h != nil {
		return h.v, true
	}
	return 0, false
}

// Keys returns the number of hosted values.
func (s *Source) Keys() int { return len(s.keys) }

// ForEach calls fn for every hosted key and its current exact value, in
// unspecified order. The checkpoint uses it to reach every key — including
// ones whose cache entries were evicted, which a walk of the cache would
// miss — while holding the owning shard's lock.
func (s *Source) ForEach(fn func(key int, v float64)) {
	for k, h := range s.keys {
		fn(k, h.v)
	}
}

// Subscriptions returns the number of subscriptions.
func (s *Source) Subscriptions() int { return s.nSubs }

// lookup returns the subscription for (cacheID, key), or nil.
func (s *Source) lookup(cacheID, key int) *subscription {
	if h := s.keys[key]; h != nil {
		return h.sub(cacheID)
	}
	return nil
}

// install registers (cacheID, key), whose record is h, under a policy from
// the factory. Like sub's, its result is valid until the list changes.
func (s *Source) install(h *hosted, cacheID, key int) *subscription {
	h.subs = append(h.subs, keySub{cacheID: cacheID, sub: subscription{policy: s.factory(cacheID, key), cap: math.Inf(1)}})
	s.nSubs++
	return &h.subs[len(h.subs)-1].sub
}

// Subscribe registers cacheID's interest in key and returns the initial
// refresh carrying the first approximation, reporting whether it installed
// the pair. Subscribing an already subscribed pair returns the current
// approximation without adjusting the policy. Subscribe panics if the key
// does not exist.
func (s *Source) Subscribe(cacheID, key int) (Refresh, bool) {
	return s.SubscribeMarked(cacheID, key, 0)
}

// SubscribeMarked is Subscribe for a host that mutes: the pair is stamped
// with mark, the host's number for the reply that will carry the result
// (rule R4 of the package comment).
func (s *Source) SubscribeMarked(cacheID, key int, mark uint64) (Refresh, bool) {
	h := s.keys[key]
	if h == nil {
		panic(fmt.Sprintf("source: Subscribe to unknown key %d", key))
	}
	v := h.v
	sub := h.sub(cacheID)
	installed := sub == nil
	if installed {
		sub = s.install(h, cacheID, key)
		sub.iv = sub.clamped(sub.policy.NewInterval(v), v)
	}
	sub.mark = mark
	return Refresh{CacheID: cacheID, Key: key, Value: v, Interval: sub.iv, OriginalWidth: sub.policy.Width()}, installed
}

// Mute deletes the pair, as Unsubscribe does, on the cache's word that it
// does not hold the key; its next Read or Subscribe starts over at the
// factory's width. seen is the caller's count of replies the cache had
// installed when it found the key not held. Mute returns the dropped pair's
// policy, referenced nowhere else, for the factory to hand out again. It
// reports false, and changes nothing, when the pair does not exist or a reply
// numbered above seen carried it: that reply may yet re-admit the key.
func (s *Source) Mute(cacheID, key int, seen uint64) (core.WidthPolicy, bool) {
	h := s.keys[key]
	if h == nil {
		return nil, false
	}
	list := h.subs
	for i := range list {
		if list[i].cacheID != cacheID {
			continue
		}
		p := list[i].sub.policy
		if list[i].sub.mark > seen {
			return nil, false
		}
		last := len(list) - 1
		list[i] = list[last]
		list[last] = keySub{} // the list keeps its array, not the policy
		h.subs = list[:last]
		s.nSubs--
		return p, true
	}
	return nil, false
}

// Unsubscribe removes the pair's subscription, reporting whether it existed:
// a Mute that no mark refuses. The adaptive algorithm's caches never call
// this (silent eviction); the server reaps a dropped standing query with it.
func (s *Source) Unsubscribe(cacheID, key int) bool {
	_, ok := s.Mute(cacheID, key, math.MaxUint64)
	return ok
}

// UnsubscribeCache removes every subscription held by cacheID, returning how
// many were removed. The networked server uses it to reap a disconnected
// client's subscriptions regardless of which keys it held (connection
// teardown, not the cache-eviction notification the paper's algorithm
// avoids).
func (s *Source) UnsubscribeCache(cacheID int) int {
	n := 0
	for _, h := range s.keys {
		list := h.subs
		kept := list[:0]
		for _, ks := range list {
			if ks.cacheID == cacheID {
				n++
				continue
			}
			kept = append(kept, ks)
		}
		if len(kept) < len(list) {
			clear(list[len(kept):])
			h.subs = kept
		}
	}
	s.nSubs -= n
	return n
}

// Set updates key's exact value and returns the value-initiated refreshes
// for every subscription whose interval the new value escapes, each from its
// policy adjusted by a ValueInitiated refresh. The returned slice is a buffer
// owned by the Source and overwritten by the next Set call; every caller
// consumes it under the same lock, installing or enqueueing the refreshes.
func (s *Source) Set(key int, v float64) []Refresh {
	h := s.host(key)
	h.v = v
	out := s.scratch[:0]
	list := h.subs
	for i := range list {
		sub := &list[i].sub
		if sub.iv.Valid(v) {
			continue
		}
		iv := sub.refresh(core.ValueInitiated, v > sub.iv.Hi, v)
		out = append(out, Refresh{
			CacheID:       list[i].cacheID,
			Key:           key,
			Value:         v,
			Interval:      iv,
			OriginalWidth: sub.policy.Width(),
		})
	}
	s.scratch = out
	return out
}

// Read serves a query-initiated refresh: it returns the exact value together
// with a new approximation, adjusting the pair's policy with a
// QueryInitiated refresh. Reading through an unsubscribed pair subscribes it
// first (a query may touch a value the cache has never seen). Read panics
// on an unknown key.
func (s *Source) Read(cacheID, key int) Refresh {
	r, ok := s.ReadMarked(cacheID, key, 0)
	if !ok {
		panic(fmt.Sprintf("source: Read of unknown key %d", key))
	}
	return r
}

// ReadMarked is Read for a host that mutes; see SubscribeMarked. It reports
// false, and changes nothing, for an unknown key, so a host that refuses one
// finds the key once.
func (s *Source) ReadMarked(cacheID, key int, mark uint64) (Refresh, bool) {
	h := s.keys[key]
	if h == nil {
		return Refresh{}, false
	}
	v := h.v
	sub := h.sub(cacheID)
	if sub == nil {
		sub = s.install(h, cacheID, key)
	}
	iv := sub.refresh(core.QueryInitiated, false, v)
	sub.mark = mark
	return Refresh{CacheID: cacheID, Key: key, Value: v, Interval: iv, OriginalWidth: sub.policy.Width()}, true
}

// SetWidthCap bounds the width of every approximation shipped to
// (cacheID, key) at cap (+Inf removes the bound, 0 ships exact values) and
// returns the width of the currently shipped interval. A standing query
// caps each member once, at registration, before the exact read that seeds
// it, so no shipped interval is ever over its cap. It reports false if the
// pair has no subscription.
func (s *Source) SetWidthCap(cacheID, key int, cap float64) (curWidth float64, ok bool) {
	sub := s.lookup(cacheID, key)
	if sub == nil {
		return 0, false
	}
	sub.cap = cap
	sub.steer()
	return sub.iv.Width(), true
}

// IntervalFor returns the interval the source believes cacheID holds for
// key, for inspection and tests.
func (s *Source) IntervalFor(cacheID, key int) (interval.Interval, bool) {
	sub := s.lookup(cacheID, key)
	if sub == nil {
		return interval.Interval{}, false
	}
	return sub.iv, true
}

// PolicyFor returns the width policy for a subscription, for inspection.
func (s *Source) PolicyFor(cacheID, key int) (core.WidthPolicy, bool) {
	sub := s.lookup(cacheID, key)
	if sub == nil {
		return nil, false
	}
	return sub.policy, true
}
