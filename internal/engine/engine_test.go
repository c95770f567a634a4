package engine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"apcache/internal/core"
	"apcache/internal/interval"
	"apcache/internal/wal"
)

// held is the test's far side of a refresh: the interval each (cache, key)
// pair was last handed, installed under the shard lock like a real host's.
type held map[[2]int]interval.Interval

func testEngine() *Engine[held] {
	return New(Config{
		Shards:       4,
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)},
		InitialWidth: 4,
		Seed:         3,
	}, func(int) held { return held{} })
}

// hammer runs seeded concurrent seeds, updates, single- and multi-key reads
// and whole-engine sweeps against e, then checks that every interval a cache
// holds still contains its value.
func hammer(t *testing.T, e *Engine[held]) {
	t.Helper()
	const keys, workers, ops = 96, 4, 3000
	install := func(sh *Shard[held], cacheID, key int, iv interval.Interval) {
		sh.Host[[2]int{cacheID, key}] = iv
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < ops; i++ {
				key := rng.Intn(keys)
				sh := e.For(key)
				switch op := rng.Intn(100); {
				case op < 55: // seed or update — one operation
					sh.Mu.Lock()
					refreshes, tok := e.Set(sh, key, rng.Float64()*1000)
					for _, r := range refreshes {
						install(sh, r.CacheID, r.Key, r.Interval)
					}
					sh.Mu.Unlock()
					e.Commit(sh, tok)
				case op < 80: // exact read, width committed after unlock
					sh.Mu.Lock()
					var tok uint64
					if _, ok := sh.Src.Value(key); ok {
						r := sh.Src.Read(w, key)
						install(sh, w, key, r.Interval)
						tok = e.StageWidth(sh, key, r.OriginalWidth)
					}
					sh.Mu.Unlock()
					e.Commit(sh, tok)
				case op < 97: // multi-key read, widths committed under the locks
					ks := []int{key, rng.Intn(keys), rng.Intn(keys), rng.Intn(keys)}
					var set []int
					for _, k := range ks {
						if idx := e.For(k).Idx; !slices.Contains(set, idx) {
							set = append(set, idx)
						}
					}
					slices.Sort(set)
					e.LockSet(set)
					for _, k := range ks {
						sh := e.For(k)
						if _, ok := sh.Src.Value(k); ok {
							r := sh.Src.Read(w, k)
							install(sh, w, k, r.Interval)
							e.Commit(sh, e.StageWidth(sh, k, r.OriginalWidth))
						}
					}
					e.UnlockSet(set)
				default: // whole-engine sweep
					e.LockAll()
					n := 0
					for _, sh := range e.Shards() {
						n += sh.Src.Keys()
					}
					e.UnlockAll()
					if n > keys {
						t.Errorf("%d keys hosted, only %d ever written", n, keys)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, sh := range e.Shards() {
		for pair, iv := range sh.Host {
			if v, _ := sh.Src.Value(pair[1]); !iv.Valid(v) {
				t.Fatalf("cache %d holds %v for key %d, exact value %g", pair[0], iv, pair[1], v)
			}
		}
	}
}

func TestHammerInMemory(t *testing.T) {
	e := testEngine()
	hammer(t, e)
	if e.Log() != nil || e.Sync() != nil || e.Close() != nil {
		t.Fatal("an in-memory engine grew a journal")
	}
	for _, sh := range e.Shards() {
		if len(sh.widths) != 0 {
			t.Fatalf("shard %d recorded %d learned widths without a journal", sh.Idx, len(sh.widths))
		}
	}
}

// TestJournalFoldReproducesLiveState hammers a journaled engine under each
// checkpoint style a host may bring, closes it, and requires the recovery
// fold to land on exactly the live values and learned widths.
func TestJournalFoldReproducesLiveState(t *testing.T) {
	type state struct{ value, width float64 }
	live := func(e *Engine[held]) map[int]state {
		m := map[int]state{}
		for _, sh := range e.Shards() {
			sh.Src.ForEach(func(k int, v float64) { m[k] = state{v, sh.widths[k]} })
		}
		return m
	}
	for _, style := range []string{"rewrite", "reset"} {
		t.Run(style, func(t *testing.T) {
			dir := t.TempDir()
			e := testEngine()
			var (
				checkpoints atomic.Int32
				snap        map[int]state // the reset style's "snapshot file"
				snapLSN     uint64
			)
			checkpoint := func() error {
				checkpoints.Add(1)
				e.LockAll()
				defer e.UnlockAll()
				if style == "rewrite" {
					return e.Log().Rewrite(0, e.ShardState)
				}
				snap, snapLSN = live(e), e.Log().LastLSN()
				return e.Log().Reset(uint64(checkpoints.Load()))
			}
			err := e.Attach(Journal{
				Log:          wal.Options{Dir: dir, Policy: wal.FsyncNone},
				CompactMin:   256,
				CompactRatio: 1,
				Checkpoint:   checkpoint,
				Broken:       func(err error) { t.Errorf("durability broke: %v", err) },
			})
			if err != nil {
				t.Fatal(err)
			}
			hammer(t, e)
			if n := checkpoints.Load(); n < 2 {
				t.Errorf("%d checkpoints ran; the compactor never fired", n)
			}
			want := live(e)
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// A closed journal accepts nothing and breaks nothing.
			sh := e.For(0)
			sh.Mu.Lock()
			_, tok := e.Set(sh, 0, -1)
			tok += e.StageWidth(sh, 0, 9) + e.StageSub(sh, 0)
			sh.Mu.Unlock()
			if tok != 0 {
				t.Fatalf("staged into a closed journal (token %d)", tok)
			}

			got, _, err := Scan(nil, dir, snapLSN)
			if err != nil {
				t.Fatal(err)
			}
			for k, base := range snap {
				st, ok := got[k]
				if !ok || !st.HasValue {
					st.Value, st.HasValue = base.value, true
				}
				if st.Width == 0 {
					st.Width = base.width
				}
				got[k] = st
			}
			if len(got) != len(want) {
				t.Fatalf("recovered %d keys, %d were live", len(got), len(want))
			}
			for k, w := range want {
				if st := got[k]; !st.HasValue || st.Value != w.value || st.Width != w.width {
					t.Fatalf("key %d recovered as %+v, live state was %+v", k, st, w)
				}
			}
			// The fold installs into a fresh engine as the same state.
			e2 := testEngine()
			e2.Restore(got)
			if again := live(e2); len(again) != len(want) {
				t.Fatalf("Restore installed %d keys, want %d", len(again), len(want))
			} else {
				for k, w := range want {
					if again[k] != w {
						t.Fatalf("key %d restored as %+v, want %+v", k, again[k], w)
					}
				}
			}
		})
	}
}

func TestFoldLastRecordWins(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, Op: wal.OpValue, Key: 1, Val: 10},
		{LSN: 2, Op: wal.OpWidth, Key: 1, Val: 3},
		{LSN: 3, Op: wal.OpSub, Key: 1},
		{LSN: 4, Op: wal.OpValue, Key: 2, Val: 20},
		{LSN: 5, Op: wal.OpUnsub, Key: 2},
		{LSN: 6, Op: wal.OpValue, Key: 1, Val: 11},
		{LSN: 7, Op: wal.OpWidth, Key: 3, Val: 5}, // its value fell into a torn tail
		{LSN: 8, Op: wal.OpUnsub, Key: 4},
		{LSN: 9, Op: wal.OpValue, Key: 4, Val: 40},
	}
	got := Fold(recs, 0)
	want := map[int]KeyState{
		1: {Value: 11, Width: 3, HasValue: true},
		2: {Dropped: true},
		3: {Width: 5},
		4: {Value: 40, HasValue: true},
	}
	if len(got) != len(want) {
		t.Fatalf("folded to %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("key %d folded to %+v, want %+v", k, got[k], w)
		}
	}
	if above := Fold(recs, 5); len(above) != 3 || above[1].Width != 0 || above[1].Value != 11 {
		t.Errorf("gate 5 folded to %v", above)
	}
}
