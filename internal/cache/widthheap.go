package cache

// widthNode is one resident's eviction rank and its place in a widthHeap.
// The owner embeds it in its entry and changes key, width and uses only
// through the heap's fix, but may add to pend at will: a lookup's credit
// waits there, outside the order, until victim sinks the node or the counts
// are halved. pos belongs to the heap.
type widthNode struct {
	key   int
	width float64 // original (pre-threshold) width, never NaN
	uses  uint32  // lookups credited to the key and ordered; 0 throughout a cache that counts none
	pend  uint32  // lookups credited since, not yet ordered
	pos   int
}

// before reports whether n goes before m on use and width alone: the fewer
// credited lookups, then the wider original width. It is the whole
// admission test — a candidate enters a full cache only if the victim is
// before it — and, with every count 0, the paper's widest-first rule.
func (n *widthNode) before(m *widthNode) bool {
	return n.uses < m.uses || (n.uses == m.uses && n.width > m.width)
}

// above reports whether n is evicted before m: before, ties toward the
// smaller key. Keys are unique, so the order is total and the victim is the
// one a full scan would pick.
func (n *widthNode) above(m *widthNode) bool {
	return n.before(m) || (n.uses == m.uses && n.width == m.width && n.key < m.key)
}

// widthHeap is an indexed max-heap over eviction ranks as last sifted, so the
// victim is a top with no lookups pending; push, fix and remove cost
// O(log n) with no allocation beyond the slice's own growth. It holds nodes, not entries, so any cache that can
// embed a widthNode per resident can keep its victim here.
type widthHeap []*widthNode

// victim returns the next victim, first sinking each top that has lookups
// pending. Counts only grow between halvings, so a top with none pending goes
// before every node's true rank (uses+pend). The heap must not be empty.
func (h widthHeap) victim() *widthNode {
	for n := h[0]; n.pend > 0; n = h[0] {
		n.uses, n.pend = n.uses+n.pend, 0
		h.down(0)
	}
	return h[0]
}

func (h *widthHeap) push(n *widthNode) {
	n.pos = len(*h)
	*h = append(*h, n)
	h.up(n.pos)
}

// fix restores the order after n's key, width or uses changed.
func (h widthHeap) fix(n *widthNode) {
	if !h.up(n.pos) {
		h.down(n.pos)
	}
}

func (h *widthHeap) remove(n *widthNode) {
	old := *h
	last := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	if last != n {
		last.pos = n.pos
		old[last.pos] = last
		h.fix(last)
	}
}

// rebuild restores the order after any number of ranks changed at once.
func (h widthHeap) rebuild() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts the node at i toward the root and reports whether it moved.
func (h widthHeap) up(i int) bool {
	n, start := h[i], i
	for i > 0 {
		p := (i - 1) / 2
		if !n.above(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = n
	n.pos = i
	return i != start
}

// down sifts the node at i toward the leaves.
func (h widthHeap) down(i int) {
	n := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].above(h[c]) {
			c++
		}
		if !h[c].above(n) {
			break
		}
		h[i] = h[c]
		h[i].pos = i
		i = c
	}
	h[i] = n
	n.pos = i
}
