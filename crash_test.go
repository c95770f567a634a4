package apcache

// Crash-fault harness for the durable store. Two layers:
//
//   - TestCrashKill9RecoversAckedState re-execs the test binary as a child
//     process that drives a durable store (fsync=always) over a
//     deterministic workload, acking each operation on stdout after it
//     returns; the parent SIGKILLs it at a randomized point, recovers the
//     directory, and — by replaying the identical workload in-process —
//     verifies that every key recovered to a value the simulation passed
//     through at or after that key's last acknowledged operation. An ack
//     under fsync=always means "durable", so recovery may never roll a value
//     back past it; the torn tail past the kill point must truncate, never
//     reject. A learned width is a hint only checkpoints write: it recovers
//     to InitialWidth or to any width the simulation reached before the kill.
//
//   - The faultfs sweeps cut simulated power at successive byte offsets of
//     the checkpoint (each shard's temp write, fsync, rename) and require
//     recovery to reproduce the pre-checkpoint state exactly: a checkpoint
//     acknowledges nothing new, so it may lose nothing.

import (
	"bufio"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"apcache/internal/faultfs"
	"apcache/internal/wal"
)

const (
	crashKeys = 16
	crashOps  = 1500
)

// crashOptions journals under dir; an empty dir is the in-memory twin.
func crashOptions(dir string) Options {
	return Options{Seed: 11, Shards: 4, InitialWidth: 4, WALDir: dir, WALFsync: FsyncAlways}
}

// crashOp is one deterministic workload step, identical in parent and child.
type crashOp struct {
	kind int // 0 = track, 1 = set (track if new), 2 = exact read
	key  int
	val  float64
}

func crashWorkload() []crashOp {
	rng := rand.New(rand.NewSource(97))
	ops := make([]crashOp, crashOps)
	for i := range ops {
		ops[i] = crashOp{
			kind: rng.Intn(3),
			key:  rng.Intn(crashKeys),
			val:  float64(rng.Intn(2001) - 1000),
		}
	}
	return ops
}

// applyCrashOp executes one op against a store; returns false if the op was
// a no-op (read of an untracked key), which still consumes its ack slot so
// parent and child number ops identically.
func applyCrashOp(s *Store, tracked map[int]bool, op crashOp) {
	switch op.kind {
	case 0:
		s.Track(op.key, op.val)
		tracked[op.key] = true
	case 1:
		if tracked[op.key] {
			s.Set(op.key, op.val)
		} else {
			s.Track(op.key, op.val)
			tracked[op.key] = true
		}
	case 2:
		if tracked[op.key] {
			s.ReadExact(op.key)
		}
	}
}

// TestCrashChildHelper is the kill -9 victim: re-exec'd by
// TestCrashKill9RecoversAckedState with the WAL directory in the
// environment, it opens the durable store, acks each completed operation on
// stdout, and waits to be killed. A normal test run skips it.
func TestCrashChildHelper(t *testing.T) {
	dir := os.Getenv("APCACHE_CRASH_DIR")
	if dir == "" {
		t.Skip("crash child: only meaningful re-exec'd by TestCrashKill9RecoversAckedState")
	}
	s, err := NewStore(crashOptions(dir))
	if err != nil {
		t.Fatalf("crash child: NewStore: %v", err)
	}
	fmt.Println("READY")
	tracked := map[int]bool{}
	for i, op := range crashWorkload() {
		applyCrashOp(s, tracked, op)
		// Direct write, not t.Log: the parent must see the ack the instant
		// the (fsynced) operation returns, not at test teardown.
		fmt.Printf("ack %d\n", i)
	}
	fmt.Println("DONE")
	// Park until killed so the parent controls the crash instant; if it
	// never kills us (late target), exiting uncleanly-but-flushed is fine.
	time.Sleep(30 * time.Second)
}

// crashSimState is one key's simulated (value, width) after some op index.
type crashSimState struct {
	op    int
	value float64
	width float64
}

func TestCrashKill9RecoversAckedState(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash harness in -short mode")
	}
	// Two independent kill points per run; each is randomized so repeated CI
	// runs sweep the whole workload.
	for round := 0; round < 2; round++ {
		target := 50 + rand.Intn(crashOps-100)
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			crashKill9Once(t, target)
		})
	}
}

func crashKill9Once(t *testing.T, target int) {
	dir := t.TempDir()
	t.Logf("killing child after ack %d", target)

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "APCACHE_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start crash child: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Read acks until the kill target, then SIGKILL mid-flight. Keep
	// draining afterwards: acks already in the pipe raise the durability
	// floor the recovery check enforces.
	lastAck := -1
	sc := bufio.NewScanner(stdout)
	killed := false
	for sc.Scan() {
		line := sc.Text()
		if n, ok := strings.CutPrefix(line, "ack "); ok {
			i, err := strconv.Atoi(n)
			if err != nil {
				t.Fatalf("crash child: bad ack %q", line)
			}
			lastAck = i
			if i >= target && !killed {
				cmd.Process.Kill() // SIGKILL: no deferred flushes, no atexit
				killed = true
			}
		}
	}
	cmd.Wait()
	if lastAck < 0 {
		t.Fatalf("crash child produced no acks (scanner err: %v)", sc.Err())
	}
	t.Logf("child killed; last ack read %d", lastAck)

	// In-process simulation of the identical workload: same seed, same
	// shard count, single-threaded, so controller adjustments replay
	// bit-for-bit. Record each key's (value, width) after every op that
	// touches it.
	sim, err := NewStore(crashOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	ops := crashWorkload()
	hist := make(map[int][]crashSimState, crashKeys)
	lastTouch := make(map[int]int, crashKeys)
	tracked := map[int]bool{}
	vals := map[int]float64{}
	for i, op := range ops {
		wasTracked := tracked[op.key]
		applyCrashOp(sim, tracked, op)
		if !wasTracked && !tracked[op.key] {
			continue // read of an untracked key: no state, no touch
		}
		if op.kind != 2 {
			vals[op.key] = op.val
		}
		// Width reads the live controller without mutating it; widths only
		// move on refreshes, so every width a checkpoint can have written
		// for the key is one of these.
		w, ok := sim.Width(op.key)
		if !ok {
			t.Fatalf("sim op %d: key %d untracked after touch", i, op.key)
		}
		hist[op.key] = append(hist[op.key], crashSimState{op: i, value: vals[op.key], width: w})
		if i <= lastAck {
			lastTouch[op.key] = len(hist[op.key]) - 1
		}
	}

	rec, err := NewStore(crashOptions(dir))
	if err != nil {
		t.Fatalf("recovery after kill -9 must truncate the torn tail, got: %v", err)
	}
	defer rec.Close()

	for k := 0; k < crashKeys; k++ {
		states := hist[k]
		w, isTracked := rec.Width(k)
		floor, acked := lastTouch[k]
		if len(states) == 0 {
			if isTracked {
				t.Fatalf("key %d: recovered but never written", k)
			}
			continue
		}
		if !acked {
			// Only unacked ops touched this key: it may have recovered to
			// any prefix state, including absent.
			if !isTracked {
				continue
			}
			floor = 0
		} else if !isTracked {
			t.Fatalf("key %d: acked at op %d but lost by recovery", k, states[floor].op)
		}
		v, err := rec.ReadExact(k)
		if err != nil {
			t.Fatalf("key %d: recovered store lost the value: %v", k, err)
		}
		// The recovered value must be one the simulation produced at or
		// after the key's last acked touch. The width has no acked floor:
		// it is the last checkpoint's, which may predate every ack, or
		// InitialWidth if no checkpoint saw the key learn one — but never
		// one the child had not reached (at most the op whose ack the kill
		// cut off).
		okV, okW := false, w == crashOptions("").InitialWidth
		for _, st := range states[floor:] {
			if st.value == v {
				okV = true
			}
		}
		for _, st := range states {
			if st.width == w && st.op <= lastAck+1 {
				okW = true
			}
		}
		if !okV {
			t.Fatalf("key %d: recovered value %g matches no simulated state at op >= %d (acked floor)",
				k, v, states[floor].op)
		}
		if !okW {
			t.Fatalf("key %d: recovered width %g is neither InitialWidth nor a simulated width at op <= %d",
				k, w, lastAck+1)
		}
	}
}

// sweepWorkload drives the deterministic workload the power-cut sweep uses,
// returning the final exact value per key. Identical in every iteration, so
// the on-disk journal at compaction time is byte-for-byte reproducible.
func sweepWorkload(s *Store) map[int]float64 {
	final := map[int]float64{}
	for i := 0; i < 120; i++ {
		k := i % 8
		v := float64(i * 3)
		s.Track(k, v)
		final[k] = v
		if i%5 == 0 {
			s.ReadExact(k)
		}
	}
	return final
}

// TestCompactionPowerCutSweep cuts simulated power at successive byte
// offsets of a checkpoint — during each shard's temp-file write, its fsync,
// the rename, the handle swap — and requires recovery to land on every acked
// value, and on each key's width as of either the previous checkpoint or this
// one, every time. A checkpoint acknowledges nothing, so it may lose nothing.
func TestCompactionPowerCutSweep(t *testing.T) {
	t.Run("checkpoint", checkpointPowerCutSweep)
}

func checkpointPowerCutSweep(t *testing.T) {
	base := t.TempDir()
	opts := func(dir string, ffs wal.FS) Options {
		return Options{Seed: 5, Shards: 2, InitialWidth: 2, WALDir: dir, WALFsync: FsyncAlways, WALFS: ffs}
	}

	// Baselines. A crash before any checkpoint after the workload recovers
	// the values from the log and the widths of the last checkpoint —
	// Attach's, which saw no key — so crashW is the cold start. The crash
	// image is a copy of the directory taken with the store still open.
	// Close checkpoints, so a clean stop recovers the live widths.
	baseDir, crashDir := base+"/baseline", base+"/baseline-crash"
	s, err := NewStore(opts(baseDir, nil))
	if err != nil {
		t.Fatal(err)
	}
	final := sweepWorkload(s)
	liveW := map[int]float64{}
	for k := range final {
		liveW[k], _ = s.Width(k)
	}
	if err := os.CopyFS(crashDir, os.DirFS(baseDir)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("baseline Close: %v", err)
	}
	recovered := func(dir string) map[int]float64 {
		rec, err := NewStore(opts(dir, nil))
		if err != nil {
			t.Fatalf("baseline recovery: %v", err)
		}
		defer rec.Close()
		w := map[int]float64{}
		for k := range final {
			var ok bool
			if w[k], ok = rec.Width(k); !ok {
				t.Fatalf("baseline recovery lost key %d", k)
			}
		}
		return w
	}
	crashW := recovered(crashDir)
	if closedW := recovered(baseDir); !maps.Equal(closedW, liveW) {
		t.Fatalf("after Close recovered widths %v, want the live %v", closedW, liveW)
	}

	for budget, iter := int64(0), 0; ; budget, iter = budget+97, iter+1 {
		if iter > 500 {
			t.Fatalf("compaction never completed within the sweep (budget %d)", budget)
		}
		dir := fmt.Sprintf("%s/cut-%06d", base, budget)
		ffs := faultfs.New(nil)
		s, err := NewStore(opts(dir, ffs))
		if err != nil {
			t.Fatalf("budget %d: NewStore: %v", budget, err)
		}
		sweepWorkload(s)

		ffs.CutPowerAfter(budget)
		cerr := s.Compact()
		// Whatever the disk did, the in-memory state must be untouched —
		// durability degrades, correctness does not.
		for k := range final {
			if w, ok := s.Width(k); !ok || w != liveW[k] {
				t.Fatalf("budget %d: live width of key %d disturbed by power cut: %g (ok=%v), want %g",
					budget, k, w, ok, liveW[k])
			}
		}
		s.Close() // error expected once the budget is hit; recovery is the test

		rec, err := NewStore(opts(dir, nil))
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		for k, v := range final {
			w, ok := rec.Width(k)
			if !ok {
				t.Fatalf("budget %d: key %d lost by crashed compaction", budget, k)
			}
			if w != crashW[k] && w != liveW[k] {
				t.Fatalf("budget %d: key %d recovered width %g; want the previous checkpoint's %g or live %g",
					budget, k, w, crashW[k], liveW[k])
			}
			if got, err := rec.ReadExact(k); err != nil || got != v {
				t.Fatalf("budget %d: key %d recovered as %g, %v; want %g", budget, k, got, err, v)
			}
		}
		rec.Close()
		if cerr == nil {
			// The full checkpoint fit under the budget: every earlier
			// offset has been swept.
			requireLogOnly(t, dir)
			return
		}
	}
}

// TestCompactionRenameFailureRecovers breaks the rename that commits each
// rewritten shard file and checks the failure is clean: the live store is
// unaffected, a later checkpoint (disk healed) succeeds, and recovery serves
// the exact state throughout.
func TestCompactionRenameFailureRecovers(t *testing.T) {
	t.Run("checkpoint", checkpointRenameFailure)
}

func checkpointRenameFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	s, err := NewStore(Options{Seed: 7, Shards: 2, InitialWidth: 2, WALDir: dir, WALFsync: FsyncAlways, WALFS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	final := map[int]float64{}
	for i := 0; i < 60; i++ {
		k := i % 6
		s.Track(k, float64(i))
		final[k] = float64(i)
	}

	renameErr := fmt.Errorf("rename blocked")
	ffs.FailRenames(renameErr)
	if err := s.Compact(); err == nil {
		t.Fatal("compaction succeeded despite failing renames")
	}
	for k, v := range final {
		if got, err := s.ReadExact(k); err != nil || got != v {
			t.Fatalf("live store wrong after failed compaction: key %d = %g, %v", k, got, err)
		}
	}
	ffs.FailRenames(nil)
	if err := s.Compact(); err != nil {
		t.Fatalf("compaction after heal: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := NewStore(Options{Seed: 7, Shards: 2, InitialWidth: 2, WALDir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	for k, v := range final {
		if got, err := rec.ReadExact(k); err != nil || got != v {
			t.Fatalf("key %d recovered as %g, %v; want %g", k, got, err, v)
		}
	}
}
