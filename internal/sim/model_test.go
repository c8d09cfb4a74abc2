package sim

import (
	"fmt"
	"sync"
	"testing"
)

// A partitioned random handler graph run on the kernel and on the
// sorted-slice reference scheduler (refSched): both must dispatch the
// exact same (node, arg, time) sequence.
//
// Every dispatch draws from a per-node deterministic RNG to create 0–2
// child events — ones inside the node's partition with arbitrary
// (including zero) delay, ones across partitions at a lookahead floor or
// more. Because the RNG advances per dispatch, any divergence in
// dispatch order cascades into a completely different event pattern, so
// equality of the logs is a strong check of the queue's (at, seq) order
// and its delay classes.
//
// The test keeps the name and case table of the sharded-kernel check it
// replaced: "shards" is the partition count k, "pairs" selects
// non-uniform per-pair cross floors, "chunks" splits the kernel run into
// that many RunUntil calls, and "par" runs several kernel copies of the
// model at once on independent Schedulers, as a parallel sweep does.

const testLookahead = Time(50)

// pairLookahead is the non-uniform delay floor between partitions a and
// b used by the pairwise variant: every pair at or above testLookahead,
// most pairs strictly above it.
func pairLookahead(a, b int) Time {
	return testLookahead + Time((a*7+b*13)%4)*25
}

// xorshift is a tiny deterministic PRNG so the test does not depend on
// other packages.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// dispatchLogEntry records one observed dispatch.
type dispatchLogEntry struct {
	node int
	arg  int64
	at   Time
}

// refPending is what the reference needs to dispatch one of its tags.
type refPending struct {
	node *tnode
	arg  int64
}

// tmodel drives one copy of the model on either the kernel (sched set)
// or the reference (ref set).
type tmodel struct {
	nodes   []*tnode
	shardOf []int
	pairs   bool
	sched   *Scheduler
	ref     *refSched
	refNow  Time
	refSeq  uint64
	refTags map[int64]refPending
	log     []dispatchLogEntry
}

// crossFloor returns the delay floor for a send between two partitions.
func (m *tmodel) crossFloor(a, b int) Time {
	if m.pairs {
		return pairLookahead(a, b)
	}
	return testLookahead
}

func (m *tmodel) now() Time {
	if m.sched != nil {
		return m.sched.Now()
	}
	return m.refNow
}

// in schedules target after delay.
func (m *tmodel) in(delay Time, target *tnode, arg int64) {
	if m.sched != nil {
		m.sched.In(delay, target, arg)
		return
	}
	tag := int64(m.refSeq)
	m.ref.add(m.refNow+delay, m.refSeq, tag)
	m.refSeq++
	m.refTags[tag] = refPending{node: target, arg: arg}
}

type tnode struct {
	m      *tmodel
	id     int
	r      xorshift
	budget int
}

func (n *tnode) OnEvent(arg int64) {
	m := n.m
	m.log = append(m.log, dispatchLogEntry{node: n.id, arg: arg, at: m.now()})

	if n.budget <= 0 {
		return
	}
	children := int(n.r.next() % 3)
	for c := 0; c < children && n.budget > 0; c++ {
		n.budget--
		target := m.nodes[n.r.next()%uint64(len(m.nodes))]
		delay := Time(n.r.next() % 40)
		if m.shardOf[target.id] != m.shardOf[n.id] {
			delay += m.crossFloor(m.shardOf[n.id], m.shardOf[target.id])
		}
		m.in(delay, target, int64(n.r.next()%1000))
	}
}

// buildModel wires nNodes across k partitions and arms one genesis event
// per node, on the kernel or (reference true) on the reference.
func buildModel(seed uint64, nNodes, k, budget int, pairs, reference bool) *tmodel {
	m := &tmodel{shardOf: make([]int, nNodes), pairs: pairs}
	if reference {
		m.ref = &refSched{}
		m.refTags = make(map[int64]refPending)
	} else {
		m.sched = NewScheduler()
	}
	for i := 0; i < nNodes; i++ {
		m.shardOf[i] = i * k / nNodes
		n := &tnode{m: m, id: i, r: xorshift(seed*1000003 + uint64(i)*7919 + 1), budget: budget}
		m.nodes = append(m.nodes, n)
	}
	for i, n := range m.nodes {
		m.in(Time(1+i*3), n, int64(i))
	}
	return m
}

// runReference dispatches every reference event due by deadline.
func (m *tmodel) runReference(deadline Time) {
	for len(m.ref.evs) > 0 {
		e, _ := m.ref.popMin()
		if e.at > deadline {
			m.ref.add(e.at, e.seq, e.tag)
			break
		}
		p := m.refTags[e.tag]
		delete(m.refTags, e.tag)
		m.refNow = e.at
		p.node.OnEvent(p.arg)
	}
	m.refNow = deadline
}

// run drives the kernel copy to deadline in `chunks` RunUntil calls.
func (m *tmodel) run(deadline Time, chunks int) {
	step := deadline / Time(chunks)
	for t := step; ; t += step {
		if t > deadline {
			t = deadline
		}
		m.sched.RunUntil(t)
		if t >= deadline {
			return
		}
	}
}

// checkAgainst compares a finished kernel copy with the reference.
func (m *tmodel) checkAgainst(ref *tmodel, deadline Time) error {
	want := ref.log
	if got := m.sched.Executed(); got != uint64(len(want)) {
		return fmt.Errorf("executed %d events, reference %d", got, len(want))
	}
	if len(m.log) != len(want) {
		return fmt.Errorf("kernel dispatched %d events, reference %d", len(m.log), len(want))
	}
	for i := range m.log {
		if g, w := m.log[i], want[i]; g != w {
			return fmt.Errorf("dispatch %d: kernel (node=%d arg=%d at=%v), reference (node=%d arg=%d at=%v)",
				i, g.node, g.arg, g.at, w.node, w.arg, w.at)
		}
	}
	if m.sched.Now() != deadline {
		return fmt.Errorf("kernel clock %v, want %v", m.sched.Now(), deadline)
	}
	if got, want := m.sched.Len(), len(ref.ref.evs); got != want {
		return fmt.Errorf("kernel holds %d pending events, reference %d", got, want)
	}
	return checkQueue(m.sched)
}

func TestShardedMatchesSerial(t *testing.T) {
	const (
		deadline = Time(1_000_000)
		copies   = 3 // kernel copies run at once when par is set
	)
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		for _, k := range []int{1, 2, 3, 4, 8} {
			for _, pairs := range []bool{false, true} {
				if pairs && k == 1 {
					continue // no cross edges, identical to uniform
				}
				ref := buildModel(seed, 9, k, 40, pairs, true)
				ref.runReference(deadline)
				if len(ref.log) == 0 {
					t.Fatalf("seed %d: reference model dispatched nothing", seed)
				}
				for _, chunks := range []int{1, 3} {
					for _, par := range []bool{false, true} {
						if par && k == 1 {
							continue // the single-partition model is covered serially
						}
						name := fmt.Sprintf("seed=%d/shards=%d/chunks=%d/pairs=%v/par=%v",
							seed, k, chunks, pairs, par)
						t.Run(name, func(t *testing.T) {
							n := 1
							if par {
								n = copies
							}
							errs := make([]error, n)
							var wg sync.WaitGroup
							for c := 0; c < n; c++ {
								wg.Add(1)
								go func(c int) {
									defer wg.Done()
									m := buildModel(seed, 9, k, 40, pairs, false)
									m.run(deadline, chunks)
									errs[c] = m.checkAgainst(ref, deadline)
								}(c)
							}
							wg.Wait()
							for c, err := range errs {
								if err != nil {
									t.Fatalf("copy %d: %v", c, err)
								}
							}
						})
					}
				}
			}
		}
	}
}
