package cacheside

import (
	"math/rand"
	"slices"
	"testing"

	"apcache/internal/interval"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// model drives a Side with decoded ops and checks the eviction protocol's
// rules after every one, with no socket and no clock. The store decides
// what it holds; the model only remembers what the Side owes: owed keys are
// those an install or a drop left outside the store since the last Reset,
// each with a fresh obligation to be announced (R2). A watch added over a key
// claims its pushes and clears the obligation; once the watch closes, the
// key's next push is ignored under R1 and queues it again.
type model struct {
	t         testing.TB
	s         *Side
	owed      map[int]bool
	announced map[int]bool
	replies   uint64
	watches   []open
	queries   []*Query
	lastQID   uint64
}

// open is a watch the model opened and has not closed.
type open struct {
	w    *watch.Watch
	keys []int
}

const (
	modelKeys     = 12
	modelCapacity = 4
)

func newModel(t testing.TB) *model {
	return &model{t: t, s: New(modelCapacity), owed: map[int]bool{}, announced: map[int]bool{}}
}

func (m *model) held(k int) bool { return m.s.store.Contains(k) }

func (m *model) watched(k int) bool {
	for _, o := range m.watches {
		if slices.Contains(o.keys, k) {
			return true
		}
	}
	return false
}

// owe records a new obligation to announce k, unless a watch claims it.
func (m *model) owe(k int) {
	if !m.watched(k) {
		m.owed[k] = true
		m.announced[k] = false
	}
}

// step applies one op: kind, key and argument bytes.
func (m *model) step(kind, kb, arg byte) {
	t := m.t
	key := int(kb) % modelKeys
	switch kind % 10 {
	case 0, 1: // an install from a reply, or a push
		push := kind%10 == 1
		before := m.s.store.Keys()
		wasHeld := m.held(key)
		width := 1 + float64(arg%7)
		m.s.Install(key, interval.Interval{Lo: float64(arg), Hi: float64(arg) + width}, width, push)
		if push && !wasHeld && m.held(key) {
			t.Fatalf("R1: a push admitted key %d, which the store did not hold", key)
		}
		for _, k := range append(before, key) {
			if !m.held(k) {
				m.owe(k)
			}
		}
	case 2: // open a watch over one or two keys
		keys := []int{key}
		if k2 := int(arg) % modelKeys; k2 != key && arg%2 == 1 {
			keys = append(keys, k2)
		}
		w := watch.New(nil)
		m.s.Watch(w, keys)
		m.watches = append(m.watches, open{w, keys})
		for _, k := range keys {
			delete(m.owed, k)
		}
	case 3: // close a watch
		if len(m.watches) == 0 {
			return
		}
		i := int(arg) % len(m.watches)
		o := m.watches[i]
		m.s.Unwatch(o.w, o.keys)
		o.w.Close()
		m.watches = slices.Delete(m.watches, i, i+1)
	case 4: // an unsubscribe
		m.s.Drop(key)
		if m.held(key) {
			t.Fatalf("key %d still held after Drop", key)
		}
		m.owe(key)
	case 5: // a frame takes the mutes
		max := 1 + int(arg)%8
		seen, keys := m.s.TakeMutes(nil, max)
		if seen != m.replies {
			t.Fatalf("R3: TakeMutes sampled seen %d after %d replies since Reset", seen, m.replies)
		}
		if len(keys) > max {
			t.Fatalf("TakeMutes handed out %d keys, max %d", len(keys), max)
		}
		for _, k := range keys {
			if m.held(int(k)) || m.watched(int(k)) {
				t.Fatalf("R2: TakeMutes handed out key %d, held %v watched %v", k, m.held(int(k)), m.watched(int(k)))
			}
			m.announced[int(k)] = true
		}
	case 6:
		m.s.Reply()
		m.replies++
	case 7: // a new session
		var want []int
		for k := 0; k < modelKeys; k++ {
			if m.held(k) || m.watched(k) {
				want = append(want, k)
			}
		}
		if got := m.s.Reset(); !slices.Equal(got, want) {
			t.Fatalf("Reset replays %v, want held ∪ watched = %v", got, want)
		}
		m.replies = 0
		clear(m.owed)
		clear(m.announced)
	case 8: // register a standing query
		q := &Query{Kind: workload.Sum, Delta: float64(arg), Keys: []int{key}, W: watch.New(nil)}
		m.s.AddQuery(q)
		if q.QID <= m.lastQID {
			t.Fatalf("AddQuery assigned QID %d after %d", q.QID, m.lastQID)
		}
		m.lastQID = q.QID
		m.queries = append(m.queries, q)
	case 9: // withdraw one
		if len(m.queries) == 0 {
			return
		}
		i := int(arg) % len(m.queries)
		q := m.queries[i]
		if !m.s.RemoveQuery(q) || m.s.RemoveQuery(q) {
			t.Fatalf("RemoveQuery(%d) did not remove it exactly once", q.QID)
		}
		q.W.Close()
		m.queries = slices.Delete(m.queries, i, i+1)
	}
	m.check()
}

// check holds after every op.
func (m *model) check() {
	t := m.t
	for k := range m.owed {
		if _, queued := m.s.muteq[k]; !(m.held(k) || m.watched(k) || queued || m.announced[k]) {
			t.Fatalf("R2: key %d was left outside the store and is neither held, watched, queued nor announced", k)
		}
	}
	if m.s.Seen() != m.replies {
		t.Fatalf("R3: seen %d, %d replies since Reset", m.s.Seen(), m.replies)
	}
	qs := m.s.Queries()
	if len(qs) != len(m.queries) || !slices.IsSortedFunc(qs, func(a, b *Query) int { return int(a.QID) - int(b.QID) }) {
		t.Fatalf("Queries returned %d out of QID order or count (model has %d)", len(qs), len(m.queries))
	}
}

// finish detaches every watch and checks each comes back once and nothing
// stays registered.
func (m *model) finish() {
	t := m.t
	want := map[*watch.Watch]bool{}
	for _, o := range m.watches {
		want[o.w] = true
	}
	for _, q := range m.queries {
		want[q.W] = true
	}
	got := m.s.Detach()
	seen := map[*watch.Watch]bool{}
	for _, w := range got {
		if seen[w] || !want[w] {
			t.Fatalf("Detach returned a watch twice or one never opened")
		}
		seen[w] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("Detach returned %d watches, %d were open", len(seen), len(want))
	}
	if len(m.s.Watches()) != 0 || len(m.s.Queries()) != 0 || len(m.s.watchers.Keys()) != 0 {
		t.Fatalf("watches or queries still registered after Detach")
	}
	for w := range want {
		w.Close()
	}
}

// run decodes data as three-byte ops.
func run(t testing.TB, data []byte) {
	m := newModel(t)
	for i := 0; i+2 < len(data); i += 3 {
		m.step(data[i], data[i+1], data[i+2])
	}
	m.finish()
}

// TestSideModel drives fixed seeds of random ops through the model.
func TestSideModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*300)
		rng.Read(data)
		run(t, data)
	}
}

// FuzzSide runs the same decoder over fuzzed op streams.
func FuzzSide(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 3*64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { run(t, data) })
}
