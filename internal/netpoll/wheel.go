package netpoll

import (
	"sync"
	"time"
)

// Wheel is a hashed timer wheel: many connections' flush deadlines
// multiplexed onto one goroutine and one ticker, so arming a coalescing
// window costs a list insertion instead of a runtime timer per connection.
// Deadlines fire within one tick of their time, early or late — fine for
// flush windows, which trade exactly that kind of latency for batching
// anyway.
//
// Timers are intrusive: the caller embeds a Timer in its per-connection
// state and the wheel links it into a slot, so scheduling allocates
// nothing. A Timer may be scheduled from any goroutine; its callback runs
// on the wheel goroutine and must not block.
type Wheel struct {
	tick  time.Duration
	mu    sync.Mutex
	slots [][]*Timer
	pos   int // slot the next advance will fire
	fired []*Timer
	stop  chan struct{}
	done  chan struct{}
}

// Timer is one schedulable deadline, embedded in its owner's state. The
// zero value is an unscheduled timer; set Fn before first use.
type Timer struct {
	// Fn runs on the wheel goroutine when the deadline expires. It must be
	// cheap and non-blocking (typically: enqueue the owner somewhere).
	Fn func()

	armed  bool
	slot   int
	rounds int // full rotations still to sit out before firing
}

// NewWheel starts a wheel with the given tick granularity and slot count.
// The horizon (tick × slots) only bounds precision, not delay: a deadline
// past the horizon stays linked and fires on a later rotation.
func NewWheel(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	if slots < 2 {
		slots = 2
	}
	w := &Wheel{
		tick:  tick,
		slots: make([][]*Timer, slots),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go w.run()
	return w
}

// Schedule arms t to fire after d. If t is already armed the earlier
// deadline wins and Schedule is a no-op — exactly the semantics a flush
// window wants: the first pending push opens the window, later pushes ride
// it. d is clamped to one tick minimum.
func (w *Wheel) Schedule(t *Timer, d time.Duration) {
	if d < w.tick {
		d = w.tick
	}
	w.mu.Lock()
	if t.armed {
		w.mu.Unlock()
		return // the earlier deadline stands
	}
	ticks := int(d / w.tick)
	t.armed = true
	t.slot = (w.pos + ticks) % len(w.slots)
	t.rounds = ticks / len(w.slots)
	w.slots[t.slot] = append(w.slots[t.slot], t)
	w.mu.Unlock()
}

// Cancel disarms t if it is armed. The callback may still run if it was
// already being fired concurrently; owners must tolerate a spurious fire.
func (w *Wheel) Cancel(t *Timer) {
	w.mu.Lock()
	if t.armed {
		w.unlink(t)
	}
	w.mu.Unlock()
}

// unlink removes t from its slot; the caller holds mu.
func (w *Wheel) unlink(t *Timer) {
	s := w.slots[t.slot]
	for i, st := range s {
		if st == t {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			w.slots[t.slot] = s[:last]
			break
		}
	}
	t.armed = false
}

// Stop shuts the wheel down. Armed timers never fire; Stop waits for the
// wheel goroutine to exit.
func (w *Wheel) Stop() {
	close(w.stop)
	<-w.done
}

func (w *Wheel) run() {
	defer close(w.done)
	tick := time.NewTicker(w.tick)
	defer tick.Stop()
	// A ticker drops ticks its receiver was too slow for; the cursor must
	// not, or every armed deadline slips by as many ticks. Advance by the
	// clock, one slot per tick elapsed.
	next := time.Now().Add(w.tick)
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			for ; !next.After(now); next = next.Add(w.tick) {
				w.advance()
			}
		}
	}
}

// advance fires the current slot's timers and moves the cursor. Timers
// whose deadline lies a full rotation (or more) ahead stay linked for a
// later pass; which pass is counted in rotations, not read off the clock, so
// an uneven ticker can shift a deadline by a tick but never by a rotation.
// Callbacks run outside the lock.
func (w *Wheel) advance() {
	w.mu.Lock()
	s := w.slots[w.pos]
	kept := s[:0]
	for _, t := range s {
		if t.rounds == 0 {
			t.armed = false
			w.fired = append(w.fired, t)
		} else {
			t.rounds--
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(s); i++ {
		s[i] = nil
	}
	w.slots[w.pos] = kept
	w.pos = (w.pos + 1) % len(w.slots)
	fired := w.fired
	w.mu.Unlock()
	for i, t := range fired {
		t.Fn()
		fired[i] = nil
	}
	w.fired = fired[:0]
}
