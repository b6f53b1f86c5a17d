package core

import (
	"fmt"
	"math"

	"fetchphi/internal/barrier"
	"fetchphi/internal/memsim"
	"fetchphi/internal/queue"
	"fetchphi/internal/twoproc"
)

// T0 is Algorithm T0 (Fig. 6): the Θ(log N / log log N) arbitration
// tree over Node_Type objects. The tree has degree m = √(log N), so
// its height is Θ(log N / log log N); a process that fails to win a
// node is eventually discovered by an exiting process, placed on a
// serial waiting queue, and "promoted" straight to its critical
// section. Promoted and normal (root-winning) entries are arbitrated
// by a two-process mutex; exit sections are serialized by a barrier.
type T0 struct {
	n        int
	degree   int
	maxLevel int            // leaves live at maxLevel, the root at 1
	lock     [][]memsim.Var // lock[lev][idx]; lev is 1-based

	spin     []memsim.Var // Spin[p], homed at p
	inTree   []memsim.Var // InTree[p], homed at p
	wq       *queue.Queue
	promoted memsim.Var
	bar      *barrier.Barrier
	two      *twoproc.Mutex

	// inTreeSites holds the Sec. 3 transformation sites for the
	// "await ¬InTree[q]" wait of the exit section (nil on CC, where
	// the plain await is already local after caching).
	inTreeSites *SiteSet

	breakLevel []int // private: level at which each process stopped
}

// NewT0 builds Algorithm T0 with the paper's degree m = √(log₂ N).
func NewT0(m *memsim.Machine) *T0 {
	n := m.NumProcs()
	deg := int(math.Round(math.Sqrt(math.Log2(float64(n) + 1))))
	if deg < 2 {
		deg = 2
	}
	return NewT0WithDegree(m, deg)
}

// NewT0WithDegree builds Algorithm T0 with an explicit tree degree
// (the E8c ablation sweeps this).
func NewT0WithDegree(m *memsim.Machine, degree int) *T0 {
	if degree < 2 {
		panic(fmt.Sprintf("core: T0 degree must be >= 2, got %d", degree))
	}
	n := m.NumProcs()
	t := &T0{
		n:          n,
		degree:     degree,
		spin:       m.NewPerProcArray("t0.Spin", 0),
		inTree:     m.NewPerProcArray("t0.InTree", 0),
		wq:         queue.New(m, "t0.wq"),
		promoted:   m.NewVar("t0.Promoted", memsim.HomeGlobal, 0),
		bar:        barrier.New(m, "t0.bar"),
		two:        twoproc.New(m, memsim.NamePrefix(nil, "t0.two")),
		breakLevel: make([]int, n),
	}
	if m.Model() == memsim.DSM {
		t.inTreeSites = NewSiteSet(m, memsim.NamePrefix(nil, "t0.intree"))
	}

	// Build levels bottom-up: the leaf level has N nodes; each level
	// above groups `degree` children until a single root remains.
	var levels [][]memsim.Var
	width := n
	for {
		level := make([]memsim.Var, width)
		for i := range level {
			level[i] = m.NewVar(fmt.Sprintf("t0.Lock[%d.%d]", len(levels), i), memsim.HomeGlobal, 0)
		}
		levels = append(levels, level)
		if width == 1 {
			break
		}
		width = (width + degree - 1) / degree
	}
	// levels[0] is the leaf level; reverse into 1-based lock[lev]
	// with the root at lev 1.
	t.maxLevel = len(levels)
	t.lock = make([][]memsim.Var, t.maxLevel+1)
	for i, level := range levels {
		t.lock[t.maxLevel-i] = level
	}
	return t
}

// Name implements harness.Algorithm.
func (t *T0) Name() string { return fmt.Sprintf("t0(m=%d)", t.degree) }

// MaxLevel returns the tree height (Θ(log N / log log N) at the
// paper's degree).
func (t *T0) MaxLevel() int { return t.maxLevel }

// nodeIndex returns process p's node index at the given level.
func (t *T0) nodeIndex(id, lev int) int {
	idx := id
	for l := t.maxLevel; l > lev; l-- {
		idx /= t.degree
	}
	return idx
}

// node returns the lock variable on p's path at the given level.
func (t *T0) node(id, lev int) memsim.Var {
	return t.lock[lev][t.nodeIndex(id, lev)]
}

// setInTreeFalse publishes that p stopped accessing the tree — the
// establishing write of the exit section's "await ¬InTree[q]", routed
// through the transformation site on DSM machines.
func (t *T0) setInTreeFalse(p *memsim.Proc) {
	me := p.ID()
	if t.inTreeSites == nil {
		p.Write(t.inTree[me], 0)
		return
	}
	t.inTreeSites.At(Word(me)).Signal(p, func() { p.Write(t.inTree[me], 0) })
}

// awaitNotInTree blocks until process q has stopped accessing the
// tree.
func (t *T0) awaitNotInTree(p *memsim.Proc, q int) {
	if t.inTreeSites == nil {
		p.AwaitEq(t.inTree[q], 0)
		return
	}
	t.inTreeSites.At(Word(q)).Wait(p, func(read func(memsim.Var) Word) bool {
		return read(t.inTree[q]) == 0
	})
}

// Acquire implements the entry section (Fig. 6, lines 1–13).
func (t *T0) Acquire(p *memsim.Proc) {
	me := p.ID()
	p.Write(t.spin[me], 0)                       // 1
	p.Write(t.inTree[me], 1)                     // 2
	acquireNode(p, t.node(me, t.maxLevel))       // 3: the leaf, always WINNER
	for lev := t.maxLevel - 1; lev >= 1; lev-- { // 4
		if acquireNode(p, t.node(me, lev)) != Winner { // 5–6
			t.setInTreeFalse(p)     // 7
			p.AwaitTrue(t.spin[me]) // 8: wait until promoted
			t.breakLevel[me] = lev  // 9
			t.two.Acquire(p, 1)     // 10: promoted entry
			return
		}
	}
	t.setInTreeFalse(p) // 11
	t.breakLevel[me] = 0
	t.two.Acquire(p, 0) // 12–13: normal entry
}

// Release implements the exit section (Fig. 6, lines 14–41).
func (t *T0) Release(p *memsim.Proc) {
	me := p.ID()
	t.bar.Wait(p)              // 14: serialize exit sections
	if t.breakLevel[me] == 0 { // 15
		t.two.Release(p, 0) // 16
	} else {
		t.two.Release(p, 1) // 17–18
		lev := t.breakLevel[me]
		n := t.node(me, lev)                       // 19
		if lk := p.Read(n); nodeWaiter(lk) == me { // 20: I am the primary waiter
			q := nodeWinner(lk)    // 21
			t.awaitNotInTree(p, q) // 22
			// 23 — deviation from the printed Fig. 6, which resets
			// the node to (⊥, ⊥) here. Reopening the node before the
			// winner q finished its CRITICAL SECTION (¬InTree only
			// says q left the tree) would let a new root winner
			// collide with q on side 0 of the final two-process
			// mutex. Instead we only unregister ourselves, writing
			// (q, ⊥); q's own exit performs the actual release, and
			// a waiter that registers in between is handled by q's
			// FAIL path. See DESIGN.md, "Deviations".
			p.Write(n, encodeNode(q, -1))
			t.wq.Enqueue(p, q) // 24
		}
		// 25–27: enqueue the winner of every child of n (secondary
		// waiters hold some child; over-approximation is corrected
		// by each process removing itself at line 35).
		t.forEachChild(me, lev, func(child memsim.Var) {
			if q := nodeWinner(p.Read(child)); q >= 0 {
				t.wq.Enqueue(p, q)
			}
		})
	}
	// 28–33: reopen every node acquired on the way up.
	for lev := t.breakLevel[me] + 1; lev <= t.maxLevel-1; lev++ {
		n := t.node(me, lev)
		if nodeWinner(p.Read(n)) == me { // 30
			if !releaseNode(p, n) { // 31: FAIL — a primary waiter arrived
				if w := nodeWaiter(p.Read(n)); w >= 0 { // 32
					t.wq.Enqueue(p, w)
				}
				p.Write(n, 0) // 33: reopen with an ordinary write
			}
		}
	}
	releaseNode(p, t.node(me, t.maxLevel)) // 34: reset the leaf
	t.wq.Remove(p, me)                     // 35
	q := p.Read(t.promoted)                // 36
	if q == Word(me)+1 || q == 0 {         // 37
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

// forEachChild visits the lock variables of every existing child of
// the node on p's path at the given level.
func (t *T0) forEachChild(id, lev int, visit func(memsim.Var)) {
	if lev >= t.maxLevel {
		return // leaves have no children
	}
	base := t.nodeIndex(id, lev) * t.degree
	childLevel := t.lock[lev+1]
	for i := 0; i < t.degree; i++ {
		if base+i < len(childLevel) {
			visit(childLevel[base+i])
		}
	}
}
