package main

// Staleness: how long a holder keeps an interval that is no longer valid.
//
// The parent replays its own schedule — the truth, stamped with each
// update's due time — against the intervals a client delivered, stamped
// with their arrival times. An episode opens at the due time of the first
// scheduled update that leaves the interval then held, and closes when an
// interval containing the current truth arrives; its length is one
// staleness sample. Measuring from the due time makes feed lateness and
// deliberate coalescing both count. A refresh that arrives while the truth
// has already moved on leaves the episode open, so the fix is attributed to
// the earliest escape not yet covered — which is what survives latest-wins
// coalescing and merge-buffer unions.

// truthPoint is one change of the truth (a key's value, or a standing
// query's true aggregate). Times are nanoseconds relative to T0.
type truthPoint struct {
	due int64
	v   float64
}

// arrival is one delivered interval.
type arrival struct {
	at     int64
	lo, hi float64
}

// staleCount is what one replay found besides the samples.
type staleCount struct {
	deliveries  int // arrivals inside the window
	overGrace   int // episodes longer than the validity grace: validity violations
	unaccounted int // arrivals that neither closed nor continued an episode
}

// replayStaleness merges truth and arrivals by time and adds one sample per
// closed episode whose closing arrival lies in [from, to) to out. Arrivals
// before from only establish the state.
func replayStaleness(truth []truthPoint, arrivals []arrival, from, to, grace int64, out *sliced, t0 int64) staleCount {
	var c staleCount
	var held arrival
	have := false
	cur, curDue := 0.0, int64(0)
	haveTruth := false
	stale, staleSince := false, int64(0) // due times are negative before the window opens
	ti := 0
	apply := func(p truthPoint) {
		cur, curDue, haveTruth = p.v, p.due, true
		if !have {
			return
		}
		if held.lo <= p.v && p.v <= held.hi {
			stale = false // the truth came back by itself
		} else if !stale {
			stale, staleSince = true, p.due
		}
	}
	for _, a := range arrivals {
		for ti < len(truth) && truth[ti].due <= a.at {
			apply(truth[ti])
			ti++
		}
		inWindow := a.at >= from && a.at < to
		if inWindow {
			c.deliveries++
		}
		held, have = a, true
		if !haveTruth {
			continue
		}
		inside := a.lo <= cur && cur <= a.hi
		switch {
		case stale && inside:
			if inWindow {
				d := a.at - staleSince
				out.add(t0+a.at, float64(d)/1e3)
				if d > grace {
					c.overGrace++
				}
			}
			stale = false
		case !stale && inside:
			if inWindow {
				c.unaccounted++
			}
		case !stale:
			stale, staleSince = true, curDue // delivered already stale: the update that made it so
		}
	}
	for ti < len(truth) && truth[ti].due < to {
		apply(truth[ti])
		ti++
	}
	if stale && staleSince >= from && to-staleSince > grace {
		c.overGrace++ // still stale when the window closed
	}
	return c
}

func (c *staleCount) add(o staleCount) {
	c.deliveries += o.deliveries
	c.overGrace += o.overGrace
	c.unaccounted += o.unaccounted
}
