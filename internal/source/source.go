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
// simulator, the hierarchy and internal/bench keep the paper's
// silent-eviction behaviour untouched.
//
// Muting is only sound if the cache really does not hold the key, and stays
// that way until it next asks. The networked host guarantees it with four
// rules; the source's part is the mark in R4:
//
//   - R1 (client). A push never admits a key the cache does not hold; only
//     the reply to a Read or Subscribe can.
//   - R2 (client). A key an install left outside the cache is announced on
//     the tail of the next ReadMulti, together with Seen: the number of
//     replies the client had fully installed when, in the same critical
//     section, it checked the key was still not held.
//   - R3 (client). Seen counts reply frames of the session, each counted
//     only after its installs are complete.
//   - R4 (server). Every Read and Subscribe stamps the subscription with the
//     number of the reply that will carry it (ReadMarked, SubscribeMarked),
//     and Mute is refused while that mark is above Seen.
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
	// CacheID identifies the destination cache.
	CacheID int
	// Key identifies the value.
	Key int
	// Value is the current exact value.
	Value float64
	// Interval is the new approximation to install.
	Interval interval.Interval
	// OriginalWidth is the policy's pre-threshold width, which the cache
	// uses as its eviction rank.
	OriginalWidth float64
}

type subscription struct {
	policy core.WidthPolicy
	iv     interval.Interval
	// cap bounds the width of every approximation shipped on this
	// subscription (0 = uncapped). The continuous-query engine sets it to
	// the key's share of a query's precision budget; the policy keeps
	// adapting underneath, the cap only clips what ships.
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
	if sub.cap <= 0 || iv.Width() <= sub.cap {
		return iv
	}
	return iv.Intersect(interval.Centered(v, sub.cap))
}

// steer keeps the policy's internal width from running away past the cap:
// growth is pointless above it (every shipped interval is clipped), and
// capping the learned width means a later cap raise resumes growth from
// the cap rather than jumping to a stale huge width.
func (sub *subscription) steer() {
	if sub.cap <= 0 {
		return
	}
	type widthSetter interface{ SetWidth(w float64) }
	if ws, ok := sub.policy.(widthSetter); ok && sub.policy.Width() > sub.cap {
		ws.SetWidth(sub.cap)
	}
}

// keySub is one cache's subscription to one key. Per-key subscriber lists
// are small slices — typically one cache in-process, a handful of clients on
// a server — so a linear scan beats an inner map and, more importantly, Set
// iterates them without a map-iterator setup.
type keySub struct {
	cacheID int
	sub     *subscription
}

// Source hosts a set of exact values and their per-cache subscriptions. It
// is not safe for concurrent use; the networked server serializes access.
//
// Subscriptions are indexed by key: Set — the hot path, called for every
// update — walks only the subscribers of the key being updated, not the
// whole subscription population (which made every update O(all
// subscriptions) and dominated profiles of the sharded store under update
// load).
type Source struct {
	values  map[int]float64
	subs    map[int][]keySub
	nSubs   int
	factory PolicyFactory
	scratch []Refresh // Set's reusable result buffer
}

// New returns an empty source using factory for new subscriptions.
func New(factory PolicyFactory) *Source {
	if factory == nil {
		panic("source: nil PolicyFactory")
	}
	return &Source{
		values:  make(map[int]float64),
		subs:    make(map[int][]keySub),
		factory: factory,
	}
}

// SetInitial installs a value without generating refreshes; use it to seed
// the source before subscriptions exist.
func (s *Source) SetInitial(key int, v float64) { s.values[key] = v }

// Value returns the current exact value for key.
func (s *Source) Value(key int) (float64, bool) {
	v, ok := s.values[key]
	return v, ok
}

// Keys returns the number of hosted values.
func (s *Source) Keys() int { return len(s.values) }

// ForEach calls fn for every hosted key and its current exact value, in
// unspecified order. The checkpoint uses it to reach every key — including
// ones whose cache entries were evicted, which a walk of the cache would
// miss — while holding the owning shard's lock.
func (s *Source) ForEach(fn func(key int, v float64)) {
	for k, v := range s.values {
		fn(k, v)
	}
}

// Subscriptions returns the number of subscriptions.
func (s *Source) Subscriptions() int { return s.nSubs }

// lookup returns the subscription for (cacheID, key), or nil.
func (s *Source) lookup(cacheID, key int) *subscription {
	for _, ks := range s.subs[key] {
		if ks.cacheID == cacheID {
			return ks.sub
		}
	}
	return nil
}

// install registers a subscription for (cacheID, key).
func (s *Source) install(cacheID, key int, sub *subscription) {
	s.subs[key] = append(s.subs[key], keySub{cacheID: cacheID, sub: sub})
	s.nSubs++
}

// Subscribe registers cacheID's interest in key and returns the initial
// refresh carrying the first approximation. Subscribing an already
// subscribed pair returns the current approximation without adjusting the
// policy. Subscribe panics if the key does not exist.
func (s *Source) Subscribe(cacheID, key int) Refresh {
	return s.SubscribeMarked(cacheID, key, 0)
}

// SubscribeMarked is Subscribe for a host that mutes: the pair is stamped
// with mark, the host's number for the reply that will carry the result
// (rule R4 of the package comment).
func (s *Source) SubscribeMarked(cacheID, key int, mark uint64) Refresh {
	v, ok := s.values[key]
	if !ok {
		panic(fmt.Sprintf("source: Subscribe to unknown key %d", key))
	}
	sub := s.lookup(cacheID, key)
	if sub == nil {
		sub = &subscription{policy: s.factory(cacheID, key)}
		sub.iv = sub.clamped(sub.policy.NewInterval(v), v)
		s.install(cacheID, key, sub)
	}
	sub.mark = mark
	return Refresh{CacheID: cacheID, Key: key, Value: v, Interval: sub.iv, OriginalWidth: sub.policy.Width()}
}

// Mute deletes the pair, as Unsubscribe does, on the cache's word that it
// does not hold the key; its next Read or Subscribe starts over at the
// factory's width. seen is the caller's count of replies the cache had
// installed when it found the key not held. Mute reports false, and changes
// nothing, when the pair does not exist or a reply numbered above seen
// carried it: that reply may yet re-admit the key.
func (s *Source) Mute(cacheID, key int, seen uint64) bool {
	if sub := s.lookup(cacheID, key); sub == nil || sub.mark > seen {
		return false
	}
	return s.Unsubscribe(cacheID, key)
}

// Unsubscribe removes the pair's subscription, reporting whether it existed.
// The adaptive algorithm's caches never call this (silent eviction); the
// exact-caching baseline does notify sources.
func (s *Source) Unsubscribe(cacheID, key int) bool {
	list := s.subs[key]
	for i, ks := range list {
		if ks.cacheID == cacheID {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(s.subs, key)
			} else {
				s.subs[key] = list
			}
			s.nSubs--
			return true
		}
	}
	return false
}

// UnsubscribeCache removes every subscription held by cacheID, returning how
// many were removed. The networked server uses it to reap a disconnected
// client's subscriptions regardless of which keys it held (connection
// teardown, not the cache-eviction notification the paper's algorithm
// avoids).
func (s *Source) UnsubscribeCache(cacheID int) int {
	n := 0
	for key, list := range s.subs {
		kept := list[:0]
		for _, ks := range list {
			if ks.cacheID == cacheID {
				n++
				continue
			}
			kept = append(kept, ks)
		}
		if len(kept) == 0 {
			delete(s.subs, key)
		} else {
			s.subs[key] = kept
		}
	}
	s.nSubs -= n
	return n
}

// Subscribed reports whether the pair has a live subscription.
func (s *Source) Subscribed(cacheID, key int) bool {
	return s.lookup(cacheID, key) != nil
}

// Set updates key's exact value and returns the value-initiated refreshes
// for every subscription whose interval the new value escapes. Each such
// policy is adjusted with a ValueInitiated refresh (directionally, for
// uncentered policies) and ships a new interval centered per its policy.
// Only the updated key's subscribers are visited.
//
// The returned slice is a buffer owned by the Source and overwritten by the
// next Set call; callers consume it before updating again (every caller is
// already structured that way — the results feed a cache install or a push
// enqueue under the same lock).
func (s *Source) Set(key int, v float64) []Refresh {
	s.values[key] = v
	out := s.scratch[:0]
	for _, ks := range s.subs[key] {
		sub := ks.sub
		if sub.iv.Valid(v) {
			continue
		}
		above := v > sub.iv.Hi
		var iv interval.Interval
		if uc, ok := sub.policy.(*core.UncenteredController); ok {
			iv = uc.RefreshIntervalDirectional(core.ValueInitiated, above, v)
		} else {
			iv = sub.policy.RefreshInterval(core.ValueInitiated, v)
		}
		iv = sub.clamped(iv, v)
		sub.steer()
		sub.iv = iv
		out = append(out, Refresh{
			CacheID:       ks.cacheID,
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
	return s.ReadMarked(cacheID, key, 0)
}

// ReadMarked is Read for a host that mutes; see SubscribeMarked.
func (s *Source) ReadMarked(cacheID, key int, mark uint64) Refresh {
	v, ok := s.values[key]
	if !ok {
		panic(fmt.Sprintf("source: Read of unknown key %d", key))
	}
	sub := s.lookup(cacheID, key)
	if sub == nil {
		sub = &subscription{policy: s.factory(cacheID, key)}
		s.install(cacheID, key, sub)
	}
	var iv interval.Interval
	if uc, ok := sub.policy.(*core.UncenteredController); ok {
		iv = uc.RefreshIntervalDirectional(core.QueryInitiated, false, v)
	} else {
		iv = sub.policy.RefreshInterval(core.QueryInitiated, v)
	}
	iv = sub.clamped(iv, v)
	sub.steer()
	sub.iv = iv
	sub.mark = mark
	return Refresh{CacheID: cacheID, Key: key, Value: v, Interval: iv, OriginalWidth: sub.policy.Width()}
}

// SetWidthCap bounds the width of every approximation shipped to
// (cacheID, key) at cap (0 removes the bound) and returns the width of the
// currently shipped interval, so the caller can tell whether it must
// force a refresh (via Read) to bring the live approximation under a
// tightened cap. It reports false if the pair has no subscription.
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
