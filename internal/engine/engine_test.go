package engine

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/core"
	"apcache/internal/interval"
	"apcache/internal/wal"
)

// held is the test's far side of a refresh: the interval each (cache, key)
// pair was last handed, installed under the shard lock like a real host's.
type held map[[2]int]interval.Interval

func testEngine() *Engine[held] { return testEngineN(4) }

func testEngineN(shards int) *Engine[held] {
	return New(Config{
		Shards:       shards,
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
	all := make([]int, len(e.Shards()))
	for i := range all {
		all[i] = i
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
					e.LockSet(all)
					n := 0
					for _, sh := range e.Shards() {
						n += sh.Src.Keys()
					}
					e.UnlockSet(all)
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

// TestJournalFoldReproducesLiveState hammers a journaled engine while
// checkpoints run — fired by the compactor ("rewrite"), and back to back from
// two goroutines against writers busy on every shard ("under-load") — closes
// it, and requires the recovery fold to land on exactly the live values and
// learned widths, with the log's record count exact.
func TestJournalFoldReproducesLiveState(t *testing.T) {
	type state struct{ value, width float64 }
	live := func(e *Engine[held]) map[int]state {
		m := map[int]state{}
		for _, sh := range e.Shards() {
			sh.Src.ForEach(func(k int, v float64) { m[k] = state{v, sh.widths[k]} })
		}
		return m
	}
	for _, style := range []string{"rewrite", "under-load"} {
		t.Run(style, func(t *testing.T) {
			dir := t.TempDir()
			e := testEngine()
			cfg := Journal{
				Log:          wal.Options{Dir: dir, Policy: wal.FsyncNone},
				CompactMin:   256,
				CompactRatio: 1,
				Broken:       func(err error) { t.Errorf("durability broke: %v", err) },
			}
			if style == "under-load" {
				cfg.CompactMin = 1 << 30 // the checkpointers below are the only ones
			}
			if err := e.Attach(cfg); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var checkpointers sync.WaitGroup
			var checkpoints atomic.Int32
			if style == "under-load" {
				for g := 0; g < 2; g++ {
					checkpointers.Add(1)
					go func() {
						defer checkpointers.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if err := e.Checkpoint(); err != nil {
								t.Errorf("checkpoint under load: %v", err)
								return
							}
							checkpoints.Add(1)
						}
					}()
				}
			}
			hammer(t, e)
			close(stop)
			checkpointers.Wait()
			if style == "under-load" && checkpoints.Load() < 2 {
				t.Errorf("%d checkpoints completed while the writers ran", checkpoints.Load())
			}
			// The hammer staged thousands of records on 96 keys and every
			// Commit that finds the journal over its thresholds kicks the
			// compactor, so checkpoints keep coming until it is under them.
			for deadline := time.Now().Add(10 * time.Second); style == "rewrite" && e.Log().Records() > int64(cfg.CompactMin); {
				if time.Now().After(deadline) {
					t.Fatalf("%d records left; the compactor never caught up", e.Log().Records())
				}
				time.Sleep(time.Millisecond)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			want, records := live(e), e.Log().Records()
			// A closed journal accepts nothing and breaks nothing.
			sh := e.For(0)
			sh.Mu.Lock()
			_, tok := e.Set(sh, 0, -1)
			tok += e.StageWidth(sh, 0, 9)
			sh.Mu.Unlock()
			if tok != 0 {
				t.Fatalf("staged into a closed journal (token %d)", tok)
			}
			if err := e.Checkpoint(); err == nil {
				t.Fatal("checkpoint ran against a closed journal")
			}

			scan, err := wal.ScanDir(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(scan.Records)) != records {
				t.Fatalf("Records() = %d, the files hold %d", records, len(scan.Records))
			}
			got := Fold(scan.Records)
			if len(got) != len(want) {
				t.Fatalf("recovered %d keys, %d were live", len(got), len(want))
			}
			for k, w := range want {
				if st := got[k]; !st.HasValue || st.Value != w.value || st.Width != w.width {
					t.Fatalf("key %d recovered as %+v, live state was %+v", k, st, w)
				}
			}
			// Attach recovers the directory into a fresh engine as the same state.
			e2 := testEngine()
			if err := e2.Attach(Journal{Log: wal.Options{Dir: dir, Policy: wal.FsyncNone}}); err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			again := live(e2)
			if len(again) != len(want) {
				t.Fatalf("Attach recovered %d keys, want %d", len(again), len(want))
			}
			for k, w := range want {
				if again[k] != w {
					t.Fatalf("key %d recovered as %+v, want %+v", k, again[k], w)
				}
			}
		})
	}
}

func TestFoldLastRecordWins(t *testing.T) {
	recs := []wal.Record{
		{LSN: 1, Op: wal.OpValue, Key: 1, Val: 10},
		{LSN: 2, Op: wal.OpWidth, Key: 1, Val: 3},
		{LSN: 3, Op: wal.OpValue, Key: 2, Val: 20},
		{LSN: 4, Op: wal.OpValue, Key: 1, Val: 11},
		{LSN: 5, Op: wal.OpWidth, Key: 3, Val: 5}, // its value fell into a torn tail
	}
	got := Fold(recs)
	want := map[int]KeyState{
		1: {Value: 11, Width: 3, HasValue: true},
		2: {Value: 20, HasValue: true},
		3: {Width: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("folded to %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("key %d folded to %+v, want %+v", k, got[k], w)
		}
	}
}

// TestDroppedPairWarmStartsFromLearnedWidth: a mute drops a pair from the
// source, not the key's width from the journal. On a journaled shard the
// dropped pair's next read starts from LearnedWidth, not from InitialWidth.
func TestDroppedPairWarmStartsFromLearnedWidth(t *testing.T) {
	const cacheID, key = 1, 5
	e := testEngineN(1)
	if err := e.Attach(Journal{Log: wal.Options{Dir: t.TempDir(), Policy: wal.FsyncNone}}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sh := e.For(key)
	read := func(mark uint64) float64 {
		sh.Mu.Lock()
		defer sh.Mu.Unlock()
		r := sh.Src.ReadMarked(cacheID, key, mark)
		e.Commit(sh, e.StageWidth(sh, key, r.OriginalWidth)) // as the server's exact read does
		return r.OriginalWidth
	}
	sh.Mu.Lock()
	_, tok := e.Set(sh, key, 100)
	sh.Mu.Unlock()
	e.Commit(sh, tok)
	for mark := uint64(1); mark <= 3; mark++ { // every read halves at this θ: 4 -> 0.5
		read(mark)
	}
	sh.Mu.Lock()
	learned, ok := sh.LearnedWidth(key)
	dropped := sh.Src.Mute(cacheID, key, 3)
	sh.Mu.Unlock()
	if !ok || learned != 0.5 || !dropped {
		t.Fatalf("learned width %g (%v), mute honoured %v; want 0.5, true, true", learned, ok, dropped)
	}
	if got := read(4); got != learned/2 {
		t.Errorf("re-read of the dropped pair learned width %g, want %g (from the journaled %g, not InitialWidth 4)", got, learned/2, learned)
	}
}

// TestShardGrowthCheckpointPowerCut cuts power at successive byte offsets of
// the one checkpoint that moves keys between files — the first after the
// shard count grew — and requires every key to recover whatever shard count
// the next process picks. Rewriting the shards in ascending order would fail
// here: file 0 would drop the keys that now belong to higher shards before
// any file held them again.
func TestShardGrowthCheckpointPowerCut(t *testing.T) {
	seed := t.TempDir()
	e := testEngineN(1)
	if err := e.Attach(Journal{Log: wal.Options{Dir: seed, Policy: wal.FsyncNone}}); err != nil {
		t.Fatal(err)
	}
	const keys = 64
	sh := e.Shards()[0]
	for k := 0; k < keys; k++ {
		sh.Mu.Lock()
		_, tok := e.Set(sh, k, float64(1000+k))
		tok = max(tok, e.StageWidth(sh, k, float64(1+k)))
		sh.Mu.Unlock()
		e.Commit(sh, tok)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(seed, wal.FileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for budget, iter := int64(1), 0; ; budget, iter = budget+29, iter+1 {
		if iter > 500 {
			t.Fatalf("the growth checkpoint never completed within the sweep (budget %d)", budget)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, wal.FileName(0)), image, 0o644); err != nil {
			t.Fatal(err)
		}
		ffs := wal.NewFaultFS(nil)
		ffs.CutPowerAfter(budget)
		grown := testEngineN(8)
		cerr := grown.Attach(Journal{Log: wal.Options{Dir: dir, Policy: wal.FsyncNone, FS: ffs}})
		if cerr == nil {
			grown.Close() // fails once the budget is hit; recovery is the test
		}
		for _, shards := range []int{8, 2} {
			rec, crashed := testEngineN(shards), t.TempDir()
			if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			if err := rec.Attach(Journal{Log: wal.Options{Dir: crashed, Policy: wal.FsyncNone}}); err != nil {
				t.Fatalf("budget %d: recovery at %d shards: %v", budget, shards, err)
			}
			for k := 0; k < keys; k++ {
				sh := rec.For(k)
				if v, ok := sh.Src.Value(k); !ok || v != float64(1000+k) || sh.widths[k] != float64(1+k) {
					t.Fatalf("budget %d, %d shards: key %d recovered as %g/%g (ok=%v)", budget, shards, k, v, sh.widths[k], ok)
				}
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if cerr == nil && ffs.BytesWritten() < budget {
			return // the whole checkpoint fit under the budget: every earlier offset is swept
		}
	}
}
