package engine

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apcache/internal/core"
	"apcache/internal/faultfs"
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
				case op < 80: // exact read
					sh.Mu.Lock()
					if r, ok := e.Read(sh, w, key, 0); ok {
						install(sh, w, key, r.Interval)
					}
					sh.Mu.Unlock()
				case op < 97: // multi-key read under the locks of every shard involved
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
						if r, ok := e.Read(sh, w, k, 0); ok {
							install(sh, w, k, r.Interval)
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
// rewrites run — of each file its Commits overfill ("rewrite"), and whole
// checkpoints back to back from two goroutines against writers busy on every
// shard ("under-load") — closes it, and requires the recovery fold to land on
// exactly the live values and learned widths, with the log's record count
// exact.
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
				compactMin:   256,
				compactRatio: 1,
				Broken:       func(err error) { t.Errorf("durability broke: %v", err) },
			}
			if style == "under-load" {
				cfg.compactMin = 1 << 30 // the checkpointers below are the only ones
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
			// The hammer staged thousands of records on 96 keys, and every
			// Commit of a record that overfilled its shard's file rewrote
			// that file before returning: with no writer left, each file is
			// within max(compactMin/4, its keys), and no shard hosts 64 keys.
			if n := e.Log().Records(); style == "rewrite" && n > int64(cfg.compactMin) {
				t.Fatalf("%d records left once every Commit returned, want at most %d", n, cfg.compactMin)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			want, records := live(e), e.Log().Records()
			// A closed journal accepts nothing and breaks nothing, and a read
			// moves no width a checkpoint would write.
			sh := e.For(0)
			sh.Mu.Lock()
			_, tok := e.Set(sh, 0, -1)
			e.Read(sh, 0, 0, 0)
			learned := sh.widths[0]
			sh.Mu.Unlock()
			if tok != 0 || learned != want[0].width {
				t.Fatalf("a closed journal staged (token %d) or learned width %g (was %g)", tok, learned, want[0].width)
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

// journaledShard attaches a journal to a one-shard test engine, with the
// compaction threshold out of reach so no checkpoint runs behind the test,
// and seeds key at 100.
func journaledShard(t *testing.T, key int) (*Engine[held], *Shard[held]) {
	t.Helper()
	e := testEngineN(1)
	if err := e.Attach(Journal{Log: wal.Options{Dir: t.TempDir(), Policy: wal.FsyncNone}, compactMin: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	sh := e.For(key)
	sh.Mu.Lock()
	_, tok := e.Set(sh, key, 100)
	sh.Mu.Unlock()
	e.Commit(sh, tok)
	return e, sh
}

// readMarked is the server's exact read of one key: Engine.Read under the
// shard lock.
func readMarked(e *Engine[held], sh *Shard[held], cacheID, key int, mark uint64) float64 {
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	r, _ := e.Read(sh, cacheID, key, mark)
	return r.OriginalWidth
}

// TestDroppedPairWarmStartsFromLearnedWidth: a mute drops a pair from the
// source, not the key's learned width from the shard. On a journaled shard the
// dropped pair's next read starts from LearnedWidth, not from InitialWidth,
// on the very controller the mute handed back to the shard, reset.
func TestDroppedPairWarmStartsFromLearnedWidth(t *testing.T) {
	const cacheID, key = 1, 5
	e, sh := journaledShard(t, key)
	for mark := uint64(1); mark <= 3; mark++ { // every read halves at this θ: 4 -> 0.5
		readMarked(e, sh, cacheID, key, mark)
	}
	sh.Mu.Lock()
	learned, ok := sh.LearnedWidth(key)
	before, _ := sh.Src.PolicyFor(cacheID, key)
	dropped := sh.Mute(cacheID, key, 3)
	sh.Mu.Unlock()
	if !ok || learned != 0.5 || !dropped {
		t.Fatalf("learned width %g (%v), mute honoured %v; want 0.5, true, true", learned, ok, dropped)
	}
	if got := readMarked(e, sh, cacheID, key, 4); got != learned/2 {
		t.Errorf("re-read of the dropped pair learned width %g, want %g (from the learned %g, not InitialWidth 4)", got, learned/2, learned)
	}
	sh.Mu.Lock()
	after, _ := sh.Src.PolicyFor(cacheID, key)
	sh.Mu.Unlock()
	c, isCtl := after.(*core.Controller)
	if !isCtl || after != before {
		t.Fatalf("re-read pair runs %p, want the recycled controller %p", after, before)
	}
	// Reset to the factory width, the learned one, then the re-read's one
	// shrink.
	if c.Width() != learned/2 || len(sh.spare) != 0 {
		t.Errorf("recycled controller: width %g, %d spares left; want %g, 0", c.Width(), len(sh.spare), learned/2)
	}
}

// TestRefusedMissCycleAllocs gates the cycle a client whose cache refuses
// most misses drives on a journaled shard: the exact read of a pair it does
// not hold installs it, and the mute on its next request drops it. With the
// subscription stored by value, the emptied subscriber list kept and the
// controller recycled through the shard, a cycle allocates nothing.
func TestRefusedMissCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const cacheID, key = 1, 5
	e, sh := journaledShard(t, key)
	var mark uint64
	cycle := func() {
		mark++
		readMarked(e, sh, cacheID, key, mark)
		sh.Mu.Lock()
		dropped := sh.Mute(cacheID, key, mark)
		sh.Mu.Unlock()
		if !dropped {
			t.Fatal("mute refused")
		}
	}
	cycle() // the first pair allocates its controller and subscriber list
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("read of a new pair + mute: %v allocs per cycle, want 0", n)
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
	// Each key learns its own width from 1 + k%4 reads; Close's checkpoint
	// writes them beside the values.
	const keys = 64
	sh := e.Shards()[0]
	widths := make(map[int]float64, keys)
	for k := 0; k < keys; k++ {
		sh.Mu.Lock()
		_, tok := e.Set(sh, k, float64(1000+k))
		for range 1 + k%4 {
			r, _ := e.Read(sh, 1, k, 0)
			widths[k] = r.OriginalWidth
		}
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
		ffs := faultfs.New(nil)
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
				if v, ok := sh.Src.Value(k); !ok || v != float64(1000+k) || sh.widths[k] != widths[k] {
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

// transientOp is one step of TestRecoveryTransient's workload: the key set
// moves by step, then the key checked is read if its held width exceeds δ.
type transientOp struct {
	set, check int
	step       float64
}

// transientRun drives ops against e for a cache (ID 0) that holds every key,
// and returns the refresh cost Ω = Cvr·VIR + Cqr·QIR they incurred. vals is
// the walk's current value per key, advanced in place.
func transientRun(e *Engine[held], prm core.Params, vals []float64, ops []transientOp, delta float64) float64 {
	var vir, qir int
	for _, op := range ops {
		vals[op.set] += op.step
		sh := e.For(op.set)
		sh.Mu.Lock()
		refreshes, tok := e.Set(sh, op.set, vals[op.set])
		for _, r := range refreshes {
			sh.Host[[2]int{r.CacheID, r.Key}] = r.Interval
			vir++
		}
		sh.Mu.Unlock()
		e.Commit(sh, tok)
		sh = e.For(op.check)
		sh.Mu.Lock()
		if pair := [2]int{0, op.check}; sh.Host[pair].Width() > delta {
			r, _ := e.Read(sh, 0, op.check, 0)
			sh.Host[pair] = r.Interval
			qir++
		}
		sh.Mu.Unlock()
	}
	return prm.Cvr*float64(vir) + prm.Cqr*float64(qir)
}

// subscribeAll is the cache's reconnect: one pair per key, at the width the
// engine seeds new pairs with.
func subscribeAll(e *Engine[held], keys int) {
	for k := 0; k < keys; k++ {
		sh := e.For(k)
		sh.Mu.Lock()
		r, _ := sh.Src.Subscribe(0, k)
		sh.Host[[2]int{0, k}] = r.Interval
		sh.Mu.Unlock()
	}
}

// TestRecoveryTransient prices the widths a crash forgets now that only
// checkpoints write them. A journaled engine warms 64 random-walk keys up to
// their converged widths (θ = 1; a check reads a key whose held width exceeds
// δ, which pins the width at 0.78·δ), checkpoints, runs on and crashes. Three
// engines then replay the same ops after a reconnect that subscribes every
// key: (a) Attach on the crash image, whose widths are the last checkpoint's;
// (b) the live widths at the crash, what journaling every width would
// recover; (c) no widths, a cold start at an InitialWidth 128× the converged
// one. The bounds were fixed before the first run: Ω_a ≤ 1.05·Ω_b and Ω_a ≤
// Ω_c; and unless Ω_c ≥ 1.1·Ω_b the setup is not exercising the transient.
func TestRecoveryTransient(t *testing.T) {
	const keys, delta = 64, 1.0
	cfg := Config{
		Shards:       4,
		Params:       core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda1: math.Inf(1)},
		InitialWidth: 100 * delta,
		Seed:         3,
	}
	engine := func() *Engine[held] { return New(cfg, func(int) held { return held{} }) }
	rng := rand.New(rand.NewSource(31))
	ops := func(perKey int) []transientOp {
		out := make([]transientOp, perKey*keys)
		for i := range out {
			out[i] = transientOp{set: rng.Intn(keys), check: rng.Intn(keys), step: rng.Float64() - 0.5}
		}
		return out
	}
	// No file reaches its threshold: the checkpoints are Attach's and the one below.
	journal := func(dir string) Journal {
		return Journal{Log: wal.Options{Dir: dir, Policy: wal.FsyncNone}, compactMin: 1 << 30}
	}

	dir := t.TempDir()
	live := engine()
	if err := live.Attach(journal(dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	vals := make([]float64, keys)
	for k := range vals {
		sh := live.For(k)
		sh.Mu.Lock()
		_, tok := live.Set(sh, k, 0)
		sh.Mu.Unlock()
		live.Commit(sh, tok)
	}
	subscribeAll(live, keys)
	transientRun(live, cfg.Params, vals, ops(200), delta)
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	transientRun(live, cfg.Params, vals, ops(50), delta)
	// The crash: every value is on disk, the widths since the checkpoint are not.
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}
	image := t.TempDir()
	if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	full, cold := map[int]KeyState{}, map[int]KeyState{}
	for _, sh := range live.Shards() {
		sh.Src.ForEach(func(k int, v float64) {
			full[k] = KeyState{Value: v, Width: sh.widths[k], HasValue: true}
			cold[k] = KeyState{Value: v, HasValue: true}
		})
	}

	replay := ops(50)
	omega := func(e *Engine[held]) float64 {
		subscribeAll(e, keys)
		return transientRun(e, cfg.Params, slices.Clone(vals), replay, delta)
	}
	a := engine()
	if err := a.Attach(journal(image)); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	forgot := 0
	for k, st := range full {
		if a.For(k).widths[k] != st.Width {
			forgot++
		}
	}
	if forgot == 0 {
		t.Fatal("the crash forgot no learned width: the ops after the checkpoint moved none")
	}
	b, c := engine(), engine()
	b.restore(full)
	c.restore(cold)
	omegaA, omegaB, omegaC := omega(a), omega(b), omega(c)
	t.Logf("Ω over the %d ops after recovery (%d of %d widths forgotten): checkpoint widths %.0f, live widths %.0f, cold %.0f",
		len(replay), forgot, keys, omegaA, omegaB, omegaC)
	if omegaC < 1.1*omegaB {
		t.Fatalf("cold Ω %.0f is not 10%% above live-width Ω %.0f: the setup does not exercise the transient", omegaC, omegaB)
	}
	if omegaA > 1.05*omegaB {
		t.Errorf("checkpoint-width Ω %.0f exceeds 1.05 × live-width Ω %.0f", omegaA, omegaB)
	}
	if omegaA > omegaC {
		t.Errorf("checkpoint-width Ω %.0f exceeds the cold start's %.0f", omegaA, omegaC)
	}
}

// gatedFS is the real filesystem, recording the renames that commit a shard
// file's rewrite. Armed, it holds the next such rename until released.
type gatedFS struct {
	wal.FS
	mu      sync.Mutex
	renamed []string // base names, in order
	armed   atomic.Bool
	held    chan struct{} // closed once the armed rename is held
	release chan struct{}
}

func (f *gatedFS) Rename(oldname, newname string) error {
	if name := filepath.Base(newname); wal.IsLogName(name) {
		f.mu.Lock()
		f.renamed = append(f.renamed, name)
		f.mu.Unlock()
		if f.armed.CompareAndSwap(true, false) {
			close(f.held)
			<-f.release
		}
	}
	return f.FS.Rename(oldname, newname)
}

// renames returns the renames recorded since the last call and forgets them.
func (f *gatedFS) renames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.renamed
	f.renamed = nil
	return r
}

// TestCompactsOnlyTheOverfullShard: the write that takes a shard's log file
// over its threshold rewrites that file, and only that one, inside its own
// Commit; Commits that saw the same mark and queued behind the rewrite find
// the file compacted and rewrite nothing. After every Commit every file is
// within its threshold — exactly with one writer, and up to the records the
// other writers have staged but not yet committed with several.
func TestCompactsOnlyTheOverfullShard(t *testing.T) {
	const keys, ratio, committers = 16, 2, 4
	e := testEngine()
	for k := 0; k < keys; k++ { // in memory: nothing journaled yet
		sh := e.For(k)
		sh.Mu.Lock()
		e.Set(sh, k, float64(k))
		sh.Mu.Unlock()
	}
	fs := &gatedFS{FS: wal.OSFS, held: make(chan struct{}), release: make(chan struct{})}
	dir := t.TempDir()
	cfg := Journal{Log: wal.Options{Dir: dir, Policy: wal.FsyncNone, FS: fs}, compactMin: 1, compactRatio: ratio}
	if err := e.Attach(cfg); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := sync.OnceFunc(func() { close(fs.release) })
	defer release() // before Close, which a held rename would block
	fs.renames()    // Attach's own checkpoint
	// Every key is hosted already, so the thresholds are fixed.
	limits := make([]int64, len(e.Shards()))
	for i, sh := range e.Shards() {
		limits[i] = max(1, ratio*int64(sh.Src.Keys()))
	}
	within := func() {
		t.Helper()
		for i, limit := range limits {
			if n := e.Log().ShardRecords(i); n > limit {
				t.Fatalf("shard %d's file holds %d records after a Commit, threshold %d", i, n, limit)
			}
		}
	}
	others := map[string][]byte{}
	for i := 1; i < len(e.Shards()); i++ {
		b, err := os.ReadFile(filepath.Join(dir, wal.FileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		others[wal.FileName(i)] = b
	}

	// One writer on one key of shard 0 until a Set overfills its file.
	key := 0
	for e.For(key).Idx != 0 {
		key++
	}
	sh := e.For(key)
	stage := func(v float64) uint64 {
		sh.Mu.Lock()
		defer sh.Mu.Unlock()
		_, tok := e.Set(sh, key, v)
		return tok
	}
	v := 0.0
	for ; e.Log().ShardRecords(0) < limits[0]; v++ {
		e.Commit(sh, stage(v))
		within()
	}
	if got := fs.renames(); len(got) != 0 {
		t.Fatalf("files within their thresholds were rewritten: %v", got)
	}
	// The next Sets overfill shard 0's file, all staged before any Commit
	// runs, so every Commit sees the mark.
	fs.armed.Store(true)
	toks := make([]uint64, committers)
	for c := range toks {
		toks[c] = stage(v + float64(c))
	}
	done := make([]chan struct{}, committers)
	for c, tok := range toks {
		done[c] = make(chan struct{})
		go func() {
			defer close(done[c])
			e.Commit(sh, tok)
		}()
	}
	select {
	case <-fs.held:
	case <-time.After(10 * time.Second):
		t.Fatalf("no rewrite started with shard 0's file at %d records, threshold %d", e.Log().ShardRecords(0), limits[0])
	}
	for c := range done {
		select {
		case <-done[c]:
			t.Fatalf("Commit %d returned while shard 0's rewrite was held", c)
		default:
		}
	}
	release()
	for c := range done {
		<-done[c]
	}
	if got := fs.renames(); !slices.Equal(got, []string{wal.FileName(0)}) {
		t.Fatalf("%d committers of one overfilled file renamed %v, want [%s] once", committers, got, wal.FileName(0))
	}
	within()
	for name, want := range others {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s changed though its shard was never written (err %v)", name, err)
		}
	}

	// Writers on every shard: each Commit leaves every file within its
	// threshold plus what the other writers may have staged meanwhile.
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000 && !t.Failed(); i++ {
				k := rng.Intn(keys)
				sh := e.For(k)
				sh.Mu.Lock()
				_, tok := e.Set(sh, k, rng.Float64())
				sh.Mu.Unlock()
				e.Commit(sh, tok)
				for i, limit := range limits {
					if n := e.Log().ShardRecords(i); n > limit+committers-1 {
						t.Errorf("shard %d's file holds %d records after a Commit, threshold %d + %d other writers", i, n, limit, committers-1)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAttachStartsNoGoroutine: the journal compacts inside Commit, so an
// attached engine runs nothing in the background.
func TestAttachStartsNoGoroutine(t *testing.T) {
	// settle waits out goroutines of earlier tests still finishing.
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	e := testEngine()
	g0 := settle()
	if err := e.Attach(Journal{Log: wal.Options{Dir: t.TempDir(), Policy: wal.FsyncInterval}}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if added := settle() - g0; added != 0 {
		t.Errorf("Attach left %d goroutines running, want 0", added)
	}
}
