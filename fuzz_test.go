package apcache

// FuzzStoreInvariant drives a Store with a random sequence of updates,
// reads, and bounded-aggregate queries decoded from fuzz input, checking the
// paper's safety properties after every operation: cached intervals always
// contain the exact value, widths are never negative or NaN, and query
// answers both meet their precision constraint and contain the true
// aggregate computed from a mirror of the exact values.

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"apcache/internal/engine"
	"apcache/internal/wal"
)

// fuzzValue decodes a finite float64 in a bounded range from 2 bytes.
func fuzzValue(b []byte) float64 {
	return float64(int16(binary.LittleEndian.Uint16(b)))
}

func FuzzStoreInvariant(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{0, 0, 10, 1, 1, 200, 2, 2, 0, 3, 3, 0, 4, 0, 5, 5})
	f.Add(int64(42), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(int64(7), uint8(64), []byte{8, 255, 16, 128, 24, 0, 32, 64, 40, 32, 48, 16})
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, ops []byte) {
		s, err := NewStore(Options{
			InitialWidth: 8,
			Seed:         seed,
			Shards:       int(shards),
			CacheSize:    32, // small enough that evictions and rejects occur
		})
		if err != nil {
			t.Fatal(err)
		}
		exact := map[int]float64{} // mirror of the exact values
		const keys = 16

		for len(ops) >= 4 {
			op, key := ops[0]%5, int(ops[1]%keys)
			val := fuzzValue(ops[2:4])
			ops = ops[4:]
			switch op {
			case 0: // track
				s.Track(key, val)
				exact[key] = val
			case 1: // update
				if _, ok := exact[key]; !ok {
					s.Track(key, val)
				} else {
					s.Set(key, val)
				}
				exact[key] = val
			case 2: // exact read
				if _, ok := exact[key]; !ok {
					continue
				}
				got, err := s.ReadExact(key)
				if err != nil {
					t.Fatalf("ReadExact(%d): %v", key, err)
				}
				if got != exact[key] {
					t.Fatalf("ReadExact(%d) = %g, want %g", key, got, exact[key])
				}
			case 3: // approximate read
				iv, ok := s.Get(key)
				if !ok {
					continue
				}
				if iv.Width() < 0 || math.IsNaN(iv.Width()) {
					t.Fatalf("key %d: bad width %g in %v", key, iv.Width(), iv)
				}
				if v, tracked := exact[key]; tracked && !iv.Valid(v) {
					t.Fatalf("key %d: interval %v does not contain exact value %g", key, iv, v)
				}
			case 4: // bounded SUM query over every tracked key
				if len(exact) == 0 {
					continue
				}
				qkeys := make([]int, 0, len(exact))
				truth := 0.0
				for k, v := range exact {
					qkeys = append(qkeys, k)
					truth += v
				}
				delta := math.Abs(val) // precision constraint from fuzz input
				ans, err := s.Do(Query{Kind: Sum, Keys: qkeys, Delta: delta})
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
				if w := ans.Result.Width(); w > delta+1e-9 || w < 0 || math.IsNaN(w) {
					t.Fatalf("answer width %g violates delta %g", w, delta)
				}
				if !ans.Result.Valid(truth) {
					t.Fatalf("answer %v does not contain true sum %g", ans.Result, truth)
				}
			}
			// Global invariant sweep: every cached interval contains its
			// exact value (Get does not perturb state).
			for k, v := range exact {
				if iv, ok := s.Get(k); ok && !iv.Valid(v) {
					t.Fatalf("key %d: interval %v lost exact value %g", k, iv, v)
				}
			}
		}
		st := s.Stats()
		if st.Cost < 0 || math.IsNaN(st.Cost) {
			t.Fatalf("bad cumulative cost %g", st.Cost)
		}
	})
}

// FuzzWALReplay builds a valid write-ahead log from a fuzz-decoded workload,
// flips arbitrary bytes in the log files, and requires recovery to (1) never
// panic, (2) never load semantically invalid state — the value and width
// validation the decoder enforces on every record — and (3) recover exactly
// the surviving record prefix: the state a reopened store serves must match
// what the surviving records imply, no more (no phantom writes) and no less
// (no dropped acked prefix).
func FuzzWALReplay(f *testing.F) {
	f.Add(uint16(0), byte(0xff), uint16(9), byte(0x01), []byte{0, 0, 10, 1, 1, 1, 200, 2, 2, 2, 0, 3})
	f.Add(uint16(50), byte(0x80), uint16(51), byte(0x80), []byte{1, 0, 7, 7, 1, 1, 8, 8, 2, 2, 0, 0, 1, 3, 9, 9})
	f.Add(uint16(4), byte(0x40), uint16(1000), byte(0x20), []byte{0, 5, 1, 2, 1, 5, 3, 4, 2, 5, 0, 0})
	f.Fuzz(func(t *testing.T, off1 uint16, val1 byte, off2 uint16, val2 byte, ops []byte) {
		const keys = 8
		dir := t.TempDir()
		opts := Options{Seed: 3, Shards: 2, InitialWidth: 2, WALDir: dir, WALFsync: FsyncAlways}
		s, err := NewStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > 400 {
			ops = ops[:400]
		}
		tracked := map[int]bool{}
		for len(ops) >= 4 {
			op, key := ops[0]%3, int(ops[1]%keys)
			val := fuzzValue(ops[2:4])
			ops = ops[4:]
			switch op {
			case 0, 1:
				s.Track(key, val)
				tracked[key] = true
			case 2:
				if tracked[key] {
					s.ReadExact(key)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Flip two bytes somewhere in the shard logs.
		var logs []string
		names, _ := os.ReadDir(dir)
		total := 0
		sizes := make([]int, 0, 2)
		for _, e := range names {
			if wal.IsLogName(e.Name()) {
				info, _ := e.Info()
				logs = append(logs, filepath.Join(dir, e.Name()))
				sizes = append(sizes, int(info.Size()))
				total += int(info.Size())
			}
		}
		mutate := func(off int, val byte) {
			if total == 0 || val == 0 {
				return
			}
			off %= total
			for i, path := range logs {
				if off < sizes[i] {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data[off] ^= val
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				off -= sizes[i]
			}
		}
		mutate(int(off1), val1)
		mutate(int(off2), val2)

		// Oracle: scan the mutated files (this truncates torn tails exactly
		// as recovery will) and fold the surviving records with the
		// production fold. The recovered store must match this expectation
		// key for key.
		res, err := wal.ScanDir(wal.OSFS, dir)
		if err != nil {
			t.Fatalf("scan of mutated log: %v", err)
		}
		expected := engine.Fold(res.Records)

		s2, err := NewStore(opts)
		if err != nil {
			t.Fatalf("recovery rejected a mutated log (must truncate instead): %v", err)
		}
		defer s2.Close()
		for k := 0; k < keys; k++ {
			ks := expected[k]
			ok := ks.HasValue // a width whose value was cut off restores nothing
			w, haveW := s2.Width(k)
			if haveW != ok {
				t.Fatalf("key %d: recovered tracked=%v, surviving records say %v", k, haveW, ok)
			}
			if !ok {
				continue
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Fatalf("key %d: invalid recovered width %g", k, w)
			}
			wantW := ks.Width
			if wantW == 0 {
				wantW = opts.InitialWidth // no surviving width record: fresh controller
			}
			if w != wantW {
				t.Fatalf("key %d: recovered width %g, want %g", k, w, wantW)
			}
			if iv, cached := s2.Get(k); cached && !iv.Valid(ks.Value) {
				t.Fatalf("key %d: recovered interval %v excludes recovered value %g", k, iv, ks.Value)
			}
			got, err := s2.ReadExact(k)
			if err != nil {
				t.Fatalf("key %d: recovered store lost the value: %v", k, err)
			}
			if got != ks.Value {
				t.Fatalf("key %d: recovered value %g, want %g", k, got, ks.Value)
			}
		}
	})
}
