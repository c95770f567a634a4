package apcache

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"apcache/internal/aperrs"
	"apcache/internal/core"
)

// snapshot is the serialized form of a Store: values, per-key controller
// widths, and cached approximations. Controllers are reconstructed from
// their widths — the width is the only adaptive state the algorithm keeps.
// The shard layout is deliberately not serialized: keys re-hash onto
// whatever shard count the restoring store is built with.
type snapshot struct {
	Version int
	Params  Params
	Keys    []keySnapshot
	VIR     int
	QIR     int
	Cost    float64
	// LSN is set only in the snap-*.gob checkpoint files durable stores
	// wrote before the per-shard log rewrite (version 2; Save leaves it
	// zero): the highest WAL sequence number folded into that snapshot.
	// OpenDurable replays only the log records above it.
	LSN uint64
}

type keySnapshot struct {
	Key    int
	Value  float64
	Width  float64 // controller's original width
	Cached bool
	Lo, Hi float64
	OrigW  float64 // cache entry's eviction rank
}

// snapshotVersion is the current format: version 2 added the LSN field.
// Version 1 snapshots (no LSN) still load — gob leaves the field zero.
const snapshotVersion = 2

// Save serializes the store's state — exact values, adaptive widths, and
// cached intervals — so a restarted process can resume with the learned
// precision settings instead of re-adapting from scratch. All shards are
// locked (in ascending order) for the duration, so the snapshot is globally
// consistent.
//
// The walk is driven by the source's key set, not the cache's: per the
// paper the source keeps subscriptions (and their learned widths) for keys
// the cache has silently evicted, and a snapshot that walked only cached
// entries would discard exactly that state — the restored store would fail
// reads of evicted keys and re-adapt their precision from scratch. Keys are
// emitted in ascending order, so identical state yields identical bytes.
func (s *Store) Save(w io.Writer) error {
	s.eng.LockAll()
	snap, err := s.captureLocked()
	s.eng.UnlockAll()
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("apcache: save: %w", err)
	}
	return nil
}

// captureLocked builds the snapshot of the store's current state. The caller
// holds every shard lock.
func (s *Store) captureLocked() (snapshot, error) {
	snap := snapshot{Version: snapshotVersion, Params: s.prm}
	for i, sh := range s.eng.Shards() {
		snap.VIR += int(sh.Host.vir)
		snap.QIR += int(sh.Host.qir)
		snap.Cost += sh.Host.cost
		cached := 0
		sh.Src.ForEach(func(key int, v float64) {
			ks := keySnapshot{Key: key, Value: v}
			if p, ok := sh.Src.PolicyFor(storeCacheID, key); ok {
				ks.Width = p.Width()
			}
			if e, ok := sh.Host.cache.Entry(key); ok {
				cached++
				ks.Cached = true
				ks.Lo, ks.Hi, ks.OrigW = e.Interval.Lo, e.Interval.Hi, e.OriginalWidth
			}
			snap.Keys = append(snap.Keys, ks)
		})
		// Every cached entry's key must be known to the source (the cache
		// only ever installs refreshes the source produced). A mismatch
		// means corrupted state; snapshotting it silently would launder
		// the corruption into the next process.
		if n := sh.Host.cache.Len(); cached != n {
			return snapshot{}, fmt.Errorf("apcache: save: shard %d has %d cached entries but only %d known to the source", i, n, cached)
		}
	}
	sort.Slice(snap.Keys, func(a, b int) bool { return snap.Keys[a].Key < snap.Keys[b].Key })
	return snap, nil
}

// validateSnapshot rejects snapshots whose numeric state would corrupt a
// store: NaN or negative widths (SetWidth would install them verbatim) and
// inverted or NaN intervals. Validation runs to completion before any store
// state is built, so a corrupt snapshot can never yield a partially
// restored store.
func validateSnapshot(snap *snapshot) error {
	for _, ks := range snap.Keys {
		if math.IsNaN(ks.Width) || math.IsInf(ks.Width, 0) || ks.Width < 0 {
			return fmt.Errorf("apcache: load: key %d has invalid width %g", ks.Key, ks.Width)
		}
		if !ks.Cached {
			continue
		}
		if math.IsNaN(ks.Lo) || math.IsNaN(ks.Hi) || ks.Lo > ks.Hi {
			return fmt.Errorf("apcache: load: key %d has invalid interval [%g, %g]", ks.Key, ks.Lo, ks.Hi)
		}
		if math.IsNaN(ks.OrigW) || math.IsInf(ks.OrigW, 0) || ks.OrigW < 0 {
			return fmt.Errorf("apcache: load: key %d has invalid original width %g", ks.Key, ks.OrigW)
		}
	}
	return nil
}

// SaveFile writes the store's snapshot to path crash-safely. The snapshot
// goes to a temporary file in path's directory first, is fsynced, and is
// then atomically renamed over path — so a crash at any instant leaves
// either the complete previous snapshot or the complete new one on disk,
// never a truncated hybrid. (An abandoned *.tmp* sibling may survive a
// crash; it is inert — LoadFile never reads it — and the next successful
// SaveFile of the same path does not depend on it.) The directory is synced
// after the rename, on a best-effort basis, so the new name itself is
// durable.
func (s *Store) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("apcache: save: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.Save(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("apcache: save: sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("apcache: save: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("apcache: save: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: make the rename itself durable
		d.Close()
	}
	return nil
}

// LoadFile restores a snapshot written by SaveFile (or any file Save
// produced). The seed drives the restored controllers' probabilistic
// adjustments, as in Load.
func LoadFile(path string, seed int64) (*Store, error) {
	return LoadFileOptions(path, Options{Seed: seed})
}

// LoadFileOptions is LoadFile with full control over the restored store's
// options, mirroring LoadOptions.
func LoadFileOptions(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("apcache: load: %w", err)
	}
	defer f.Close()
	return LoadOptions(f, opts)
}

// Load restores a snapshot written by Save into a fresh store built with the
// snapshot's parameters and default options. The seed drives the restored
// controllers' probabilistic adjustments. Use LoadOptions to also control
// the shard count (and any other store option).
func Load(r io.Reader, seed int64) (*Store, error) {
	return LoadOptions(r, Options{Seed: seed})
}

// LoadOptions restores a snapshot written by Save into a fresh store built
// with the given options. The snapshot's algorithm parameters always win
// over opts.Params (they are part of the saved state); everything else —
// notably Shards and Seed — comes from opts, so a store saved by a
// deterministic single-shard run can be restored with the same layout
// instead of a GOMAXPROCS-dependent default.
func LoadOptions(r io.Reader, opts Options) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("apcache: load: %w", err)
	}
	if err := checkSnapshot(&snap); err != nil {
		return nil, err
	}
	return restoreSnapshot(&snap, opts)
}

// checkSnapshot gates a decoded snapshot: a version newer than this binary
// fails with the typed ErrSnapshotVersion (the file is fine, the reader is
// old), anything else out of range or semantically invalid fails as
// corruption. Gob tolerates missing fields, so every version up to the
// current one decodes; validation runs before any store state is built.
func checkSnapshot(snap *snapshot) error {
	if snap.Version > snapshotVersion {
		return aperrs.SnapshotVersion(snap.Version, snapshotVersion)
	}
	if snap.Version < 1 {
		return fmt.Errorf("apcache: snapshot version %d invalid", snap.Version)
	}
	return validateSnapshot(snap)
}

// restoreSnapshot builds a fresh store from a validated snapshot. The
// snapshot's Params always win over opts.Params.
func restoreSnapshot(snap *snapshot, opts Options) (*Store, error) {
	opts.Params = snap.Params
	s, err := NewStore(opts)
	if err != nil {
		return nil, err
	}
	// The restored totals land on shard 0; Stats sums across shards, so the
	// split is invisible to callers.
	h := &s.eng.Shards()[0].Host
	h.vir, h.qir, h.cost = int64(snap.VIR), int64(snap.QIR), snap.Cost
	for _, ks := range snap.Keys {
		sh := s.eng.For(ks.Key)
		sh.Mu.Lock()
		sh.Src.SetInitial(ks.Key, ks.Value)
		sh.Src.Subscribe(storeCacheID, ks.Key)
		// Width 0 marks a key snapshotted without a recorded policy; the
		// fresh subscription's InitialWidth stands in that case.
		if ks.Width > 0 {
			if p, ok := sh.Src.PolicyFor(storeCacheID, ks.Key); ok {
				if c, ok := p.(*core.Controller); ok {
					c.SetWidth(ks.Width)
				}
			}
		}
		if ks.Cached {
			sh.Host.cache.Put(ks.Key, Interval{Lo: ks.Lo, Hi: ks.Hi}, ks.OrigW)
		}
		sh.Mu.Unlock()
	}
	return s, nil
}

// decodeSnap and encodeSnap expose raw snapshot coding for version tests.
func decodeSnap(r io.Reader, snap *snapshot) error { return gob.NewDecoder(r).Decode(snap) }

func encodeSnap(w io.Writer, snap snapshot) error { return gob.NewEncoder(w).Encode(snap) }
