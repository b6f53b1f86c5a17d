package core

import (
	"fmt"

	"fetchphi/internal/memsim"
)

// T0 is Algorithm T0 (Fig. 6): the promotion tree (promotionTree) of
// degree m = √(log N), so of height Θ(log N / log log N), whose nodes
// are Node_Type objects (Fig. 5), one variable each.
type T0 struct {
	*promotionTree
	lock [][]memsim.Var // lock[lev][idx]; lev is 1-based
}

// NewT0 builds Algorithm T0 with the paper's degree m = √(log₂ N) (see
// TDegree).
func NewT0(m *memsim.Machine) *T0 { return NewT0WithDegree(m, TDegree(m.NumProcs())) }

// NewT0WithDegree builds Algorithm T0 with an explicit tree degree
// (the E8c ablation sweeps this).
func NewT0WithDegree(m *memsim.Machine, degree int) *T0 {
	tree := newPromotionTree(m, "t0", degree)
	t := t0s.New(m)
	*t = T0{promotionTree: tree, lock: varLevels.Make(m, tree.maxLevel+1)}
	// Levels are allocated bottom-up and labelled from the leaves:
	// t0.Lock[k.i] is node i at k levels above the leaves.
	for lev := tree.maxLevel; lev >= 1; lev-- {
		t.lock[lev] = memVars.Make(m, tree.width(lev))
		for i := range t.lock[lev] {
			t.lock[lev][i] = m.NewVar(fmt.Sprintf("t0.Lock[%d.%d]", tree.maxLevel-lev, i), memsim.HomeGlobal, 0)
		}
	}
	return t
}

// Name implements harness.Algorithm.
func (t *T0) Name() string { return fmt.Sprintf("t0(m=%d)", t.degree) }

// node returns the lock variable on p's path at the given level.
func (t *T0) node(id, lev int) memsim.Var {
	return t.lock[lev][t.nodeIndex(id, lev)]
}

// Acquire implements the entry section (Fig. 6, lines 1–13).
func (t *T0) Acquire(p *memsim.Proc) {
	me := p.ID()
	t.begin(p)                                   // 1–2
	acquireNode(p, t.node(me, t.maxLevel))       // 3: the leaf, always WINNER
	for lev := t.maxLevel - 1; lev >= 1; lev-- { // 4
		if acquireNode(p, t.node(me, lev)) != Winner { // 5–6
			t.park(p, lev) // 7–10
			return
		}
	}
	t.won(p)            // 11
	t.two.Acquire(p, 0) // 12–13: normal entry
}

// Release implements the exit section (Fig. 6, lines 14–41).
func (t *T0) Release(p *memsim.Proc) {
	me := p.ID()
	brk := t.exitHead(p) // 14–18
	if brk > 0 {
		n := t.node(me, brk)                       // 19
		if lk := p.Read(n); nodeWaiter(lk) == me { // 20: I am the primary waiter
			q := nodeWinner(lk)                             // 21
			t.inTreeWaits.WaitZero(p, Word(q), t.inTree[q]) // 22
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
		lo, hi := t.children(brk, t.nodeIndex(me, brk))
		for c := lo; c < hi; c++ {
			if q := nodeWinner(p.Read(t.lock[brk+1][c])); q >= 0 {
				t.wq.Enqueue(p, q)
			}
		}
	}
	// 28–33: reopen every node acquired on the way up.
	for lev := brk + 1; lev <= t.maxLevel-1; lev++ {
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
	t.promote(p)                           // 35–41
}
