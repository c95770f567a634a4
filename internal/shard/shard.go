// Package shard provides the key-partitioning scheme shared by the sharded
// Store and the networked server: integer keys are spread over a power-of-two
// number of shards by a 64-bit finalizer hash, so each shard can be guarded
// by its own lock and the adaptive-precision controllers — which are
// inherently per-key — run without global serialization.
package shard

import "runtime"

// MaxShards bounds the shard count; beyond this, lock striping gains nothing
// and per-shard state (RNGs, cache slices) only wastes memory.
const MaxShards = 256

// Count normalizes a requested shard count: values <= 0 select a default
// scaled to GOMAXPROCS, and any request is rounded up to the next power of
// two and clamped to [1, MaxShards]. The result is always a power of two so
// shard selection is a mask, not a modulo.
func Count(requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Mix runs a key through the splitmix64 finalizer, producing 64 well-mixed
// bits. Index takes the low bits for shard selection; an in-shard hash table
// must therefore hash with the HIGH bits — within one shard every key shares
// the same low log2(shards) mixed bits, so reusing them would collapse the
// whole shard onto one probe chain.
func Mix(key int) uint64 {
	z := uint64(key)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Index maps a key to a shard in [0, n) for a power-of-two n. Keys are mixed
// through the splitmix64 finalizer first: sequential keys (the common case in
// the paper's workloads) would otherwise land on consecutive shards and any
// stride-of-n access pattern would collapse onto one lock.
func Index(key, n int) int {
	return int(Mix(key) & uint64(n-1))
}
