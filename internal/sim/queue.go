package sim

// The pending-event queue. Every event is an entry keyed by (at, seq).
// An event scheduled d picoseconds ahead, for a delay d that has been
// promoted to a delay class, joins that class's FIFO ring: the clock
// never runs backwards and seq only grows, so entries pushed with the
// same delay arrive in nondecreasing (at, seq) order and each ring is
// sorted without any work. Every other event — rare delays and absolute
// times — goes into a general 4-ary min-heap.
// The front of the queue is the earlier of the general heap's root and
// the root of a small binary heap over the ring heads, so dispatch
// follows exactly the (at, seq) order of a single heap.

// heapClass is the class of an event in the general heap.
const heapClass int32 = -1

const (
	// maxClasses caps the number of delay classes (rings). The simulated
	// hardware schedules almost every toggle with one of a dozen gate
	// and wire delays; a chiplet composition adds its die-to-die hops.
	maxClasses = 32
	// promoteAfter is how often an unclassed delay must recur (as
	// counted in its candidate slot) before it gets a ring. Injection
	// gaps and retry waits vary per packet and stay in the heap.
	promoteAfter = 64
	// indexBits sizes the open-addressed delay -> class index; with at
	// most maxClasses entries in 128 slots a probe is short.
	indexBits = 7
	// candBits sizes the direct-mapped table of recurrence counters.
	candBits = 8
	// ringMin is the capacity of a ring's first buffer; rings double
	// from there.
	ringMin = 16
	// heapArity is the branching factor of the general heap. A 4-ary
	// heap halves the depth of a binary one and keeps a node's children
	// within two cache lines.
	heapArity = 4
)

// key orders events: time first, schedule order among simultaneous
// events.
type key struct {
	at  Time
	seq uint64
}

func (k key) before(o key) bool {
	return k.at < o.at || k.at == o.at && k.seq < o.seq
}

// entry is one queued event: its key and its slab slot.
type entry struct {
	key
	slot int32
}

// head is one non-empty ring in the head heap, keyed by its first entry.
type head struct {
	key
	cls int32
}

// ring is one delay class: a FIFO of entries in a power-of-two buffer.
type ring struct {
	buf   []entry
	first int
	n     int
}

// classTable maps delays to classes and counts the recurrence of the
// delays not yet promoted. It also backs the queue's rings and heads and
// every ring's first buffer, so a run's promotions allocate nothing. It
// is allocated on the first push, so a scheduler that never runs costs
// nothing extra.
type classTable struct {
	index [1 << indexBits]struct {
		d    Time
		cls1 int32 // class+1; 0 marks an empty slot
	}
	cand [1 << candBits]struct {
		d Time
		n int32
	}
	rings [maxClasses]ring
	heads [maxClasses]head
	first [maxClasses][ringMin]entry
}

// queue holds every pending event of one scheduler.
type queue struct {
	heap    []entry
	rings   []ring
	heads   []head
	classes *classTable
}

// hashDelay spreads a delay over a table of 1<<bits slots (Fibonacci
// hashing; delays are small multiples of a few picoseconds).
func hashDelay(d Time, bits uint) uint64 {
	return uint64(d) * 0x9E3779B97F4A7C15 >> (64 - bits)
}

// lookup returns the ring for events d picoseconds ahead, promoting d
// once it has recurred often enough, or heapClass. At tries d's home slot
// of the index inline and calls lookup only when that misses.
func (q *queue) lookup(d Time) int32 {
	t := q.classes
	if t == nil {
		t = new(classTable)
		q.classes = t
		q.rings, q.heads = t.rings[:0], t.heads[:0]
	}
	const mask = 1<<indexBits - 1
	i := hashDelay(d, indexBits)
	for ; t.index[i].cls1 != 0; i = (i + 1) & mask {
		if t.index[i].d == d {
			return t.index[i].cls1 - 1
		}
	}
	if len(q.rings) == maxClasses {
		return heapClass
	}
	c := &t.cand[hashDelay(d, candBits)]
	if c.d != d {
		c.d, c.n = d, 0
	}
	if c.n++; c.n < promoteAfter {
		return heapClass
	}
	cls := int32(len(q.rings))
	q.rings = append(q.rings, ring{buf: t.first[cls][:]})
	t.index[i].d, t.index[i].cls1 = d, cls+1
	return cls
}

// addHead enters a ring that just became non-empty into the head heap.
func (q *queue) addHead(c int32, k key) {
	q.heads = append(q.heads, head{key: k, cls: c})
	q.siftUpHead(len(q.heads) - 1)
}

// grow doubles the ring's buffer, unwrapping the entries to the front.
// Kept out of line so At's ring append stays small.
//
//go:noinline
func (r *ring) grow() {
	buf := make([]entry, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.first+i)&(len(r.buf)-1)]
	}
	r.buf, r.first = buf, 0
}

// pop removes and returns the earliest queued entry if it is due by
// deadline; otherwise it reports false.
func (q *queue) pop(deadline Time) (entry, bool) {
	if len(q.heads) > 0 && (len(q.heap) == 0 || q.heads[0].key.before(q.heap[0].key)) {
		c := q.heads[0].cls
		r := &q.rings[c]
		e := r.buf[r.first]
		if e.at > deadline {
			return entry{}, false
		}
		if r.n--; r.n > 0 {
			r.first = (r.first + 1) & (len(r.buf) - 1)
			q.replaceRoot(r.buf[r.first].key)
		} else if len(q.heads) == 1 {
			q.heads = q.heads[:0]
		} else {
			q.removeRoot()
		}
		return e, true
	}
	if len(q.heap) == 0 || q.heap[0].at > deadline {
		return entry{}, false
	}
	e := q.heap[0]
	q.popHeap()
	return e, true
}

// pushHeap adds e to the general heap.
func (q *queue) pushHeap(e entry) {
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// siftUp restores heap order from position i toward the root.
func (q *queue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.key.before(h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popHeap removes the general heap's root.
func (q *queue) popHeap() {
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0, e)
	}
}

// siftDown places e into the hole at i, moving it toward the leaves.
func (q *queue) siftDown(i int, e entry) {
	h := q.heap
	n := len(h)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+heapArity, n)
		for j := c + 1; j < end; j++ {
			if h[j].key.before(h[best].key) {
				best = j
			}
		}
		if !h[best].key.before(e.key) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// siftUpHead restores head-heap order from position i toward the root.
func (q *queue) siftUpHead(i int) {
	hs := q.heads
	x := hs[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.key.before(hs[p].key) {
			break
		}
		hs[i] = hs[p]
		i = p
	}
	hs[i] = x
}

// replaceRoot re-keys the head heap's root to k, a later key. A ring's
// next entry usually lies a whole gate delay ahead of the other heads,
// so the root is sifted bottom-up (Floyd): the hole descends along the
// smaller children to a leaf, one comparison per level, and the entry
// then climbs back the few levels it overshot.
func (q *queue) replaceRoot(k key) {
	hs := q.heads
	n := len(hs)
	// A ring often holds several events due at once (a fanout sends both
	// copies of a flit after the same delay): then it stays in front.
	if n == 1 || k.before(hs[1].key) && (n == 2 || k.before(hs[2].key)) {
		hs[0].key = k
		return
	}
	x := hs[0]
	x.key = k
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && hs[c+1].key.before(hs[c].key) {
			c++
		}
		hs[i] = hs[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !x.key.before(hs[p].key) {
			break
		}
		hs[i] = hs[p]
		i = p
	}
	hs[i] = x
}

// removeRoot deletes the head heap's root: a ring that just emptied.
func (q *queue) removeRoot() {
	last := len(q.heads) - 1
	x := q.heads[last]
	q.heads = q.heads[:last]
	hs := q.heads
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && hs[c+1].key.before(hs[c].key) {
			c++
		}
		if !hs[c].key.before(x.key) {
			break
		}
		hs[i] = hs[c]
		i = c
	}
	hs[i] = x
}
