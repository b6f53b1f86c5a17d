package core

import (
	"fmt"
	"math"

	"fetchphi/internal/barrier"
	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
	"fetchphi/internal/queue"
	"fetchphi/internal/twoproc"
)

// promotionTree is the skeleton Algorithms T0 (Fig. 6) and T (Fig. 10)
// share: a tree of degree m whose leaves are the N processes and whose
// root is level 1. A process climbs from its leaf, winning one node a
// level; one that fails at a node parks until an exiting process
// discovers it, puts it on the serial waiting queue and promotes it
// straight to its critical section. Promoted and root-winning entries
// meet at a final two-process mutex, and a barrier serializes exit
// sections. What a node is, and how it is won, released and scanned
// for waiters, is each algorithm's own node protocol.
type promotionTree struct {
	n        int
	degree   int
	maxLevel int // leaves live at maxLevel, the root at 1

	spin     []memsim.Var // Spin[p], homed at p
	inTree   []memsim.Var // InTree[p], homed at p
	wq       *queue.Queue
	promoted memsim.Var
	bar      *barrier.Barrier
	two      *twoproc.Mutex

	// inTreeWaits carries the exit section's "await ¬InTree[q]"
	// (Fig. 6 line 22, Fig. 10 line 33) and its establishing writes
	// (lines 7 and 11): Sec. 3 sites on DSM, plain awaits where those
	// are already local.
	inTreeWaits localspin.Waits

	breakLevel []int // private: level at which each process stopped, 0 at the root
}

// TDegree returns the tree degree NewT0 and NewT give n processes: the
// paper's m = √(log₂(n+1)) rounded, and at least 2.
func TDegree(n int) int {
	return max(int(math.Round(math.Sqrt(math.Log2(float64(n)+1)))), 2)
}

// THeight returns the height of the tree NewT0WithDegree and
// NewTWithDegree build for n processes and the given degree, without
// building it: the leaf level has n nodes and each level above
// ⌈1/degree⌉ as many, up to the root. The node protocol does not enter
// into it.
func THeight(n, degree int) (levels int) {
	if degree < 2 {
		panic(fmt.Sprintf("core: tree degree must be >= 2, got %d", degree))
	}
	levels = 1
	for width := n; width > 1; width = (width + degree - 1) / degree {
		levels++
	}
	return levels
}

// newPromotionTree builds, in m's storage, the skeleton of a tree of
// the given degree over m's processes, its variables labelled name.*.
func newPromotionTree(m *memsim.Machine, name string, degree int) *promotionTree {
	n := m.NumProcs()
	t := promotionTrees.New(m)
	*t = promotionTree{
		n:           n,
		degree:      degree,
		maxLevel:    THeight(n, degree),
		spin:        m.NewPerProcArray(name+".Spin", 0),
		inTree:      m.NewPerProcArray(name+".InTree", 0),
		wq:          queue.New(m, name+".wq"),
		promoted:    m.NewVar(name+".Promoted", memsim.HomeGlobal, 0),
		bar:         barrier.New(m, name+".bar"),
		two:         twoproc.New(m, memsim.NamePrefix(nil, name+".two")),
		inTreeWaits: localspin.ForModel(m, memsim.NamePrefix(nil, name+".intree")),
		breakLevel:  ints.Make(m, n),
	}
	return t
}

// width returns the number of nodes at level lev: one past the last
// process's node there.
func (t *promotionTree) width(lev int) int { return t.nodeIndex(t.n-1, lev) + 1 }

// nodeIndex returns process id's node index at the given level.
func (t *promotionTree) nodeIndex(id, lev int) int {
	idx := id
	for l := t.maxLevel; l > lev; l-- {
		idx /= t.degree
	}
	return idx
}

// children returns the index range [lo, hi) at level lev+1 of the
// existing children of node (lev, idx), which is not a leaf.
func (t *promotionTree) children(lev, idx int) (lo, hi int) {
	lo = idx * t.degree
	return lo, min(lo+t.degree, t.width(lev+1))
}

// begin performs lines 1–2 of the entry section: clear my promotion
// flag and enter the tree.
func (t *promotionTree) begin(p *memsim.Proc) {
	me := p.ID()
	p.Write(t.spin[me], 0)   // 1
	p.Write(t.inTree[me], 1) // 2
}

// park performs lines 7–10 for a process that failed at level lev:
// leave the tree, wait to be promoted, and take the promoted side of
// the final mutex.
func (t *promotionTree) park(p *memsim.Proc, lev int) {
	me := p.ID()
	t.inTreeWaits.Signal(p, Word(me), func() { p.Write(t.inTree[me], 0) }) // 7
	p.AwaitTrue(t.spin[me])                                                // 8: wait until promoted
	t.breakLevel[me] = lev                                                 // 9
	t.two.Acquire(p, 1)                                                    // 10: promoted entry
}

// won performs line 11 for a process that won the root: leave the tree.
func (t *promotionTree) won(p *memsim.Proc) {
	me := p.ID()
	t.inTreeWaits.Signal(p, Word(me), func() { p.Write(t.inTree[me], 0) }) // 11
	t.breakLevel[me] = 0
}

// exitHead opens the exit section: take the barrier that serializes
// exit sections (Fig. 6 line 14, Fig. 10 line 26) and release my side
// of the final mutex (Fig. 6 lines 15–18, Fig. 10 lines 27–29). It
// returns the level I stopped at, 0 if I won the root.
func (t *promotionTree) exitHead(p *memsim.Proc) int {
	t.bar.Wait(p)
	lev := t.breakLevel[p.ID()]
	if lev == 0 {
		t.two.Release(p, 0)
	} else {
		t.two.Release(p, 1)
	}
	return lev
}

// promote closes the exit section (Fig. 6 lines 35–41, Fig. 10 lines
// 60–66): leave the waiting queue; if I was the promoted process, or
// none is, promote the next waiter; then pass the barrier on.
func (t *promotionTree) promote(p *memsim.Proc) {
	me := p.ID()
	t.wq.Remove(p, me)             // 35
	q := p.Read(t.promoted)        // 36
	if q == Word(me)+1 || q == 0 { // 37
		r := t.wq.Dequeue(p) // 38
		if r >= 0 {
			p.Write(t.promoted, Word(r)+1) // 39
			p.Write(t.spin[r], 1)          // 40
		} else {
			p.Write(t.promoted, 0)
		}
	}
	t.bar.Signal(p) // 41
}
