package core

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// Tree is the arbitration tree of Theorem 1: given a fetch-and-φ
// primitive of rank r (4 ≤ r), each internal node is a ⌊r/2⌋-slot
// G-DSM instance, and a process acquires the lock by winning every
// node on the path from its leaf to the root. The tree has height
// Θ(log_c N) for node capacity c = ⌊r/2⌋, giving Θ(log_min(r,N) N)
// RMR complexity on both CC and DSM machines.
//
// (The paper states node capacity ⌈r/2⌉; for odd r that would require
// rank 2⌈r/2⌉ = r+1 of a rank-r primitive, so we use the floor. For
// even r the two agree.)
type Tree struct {
	prim   phi.Primitive
	n      int
	cap    int       // node capacity c
	levels int       // tree height (number of internal-node levels)
	nodes  [][]*GDSM // nodes[level][index]; level 0 is nearest the leaves
}

// NewTree builds an arbitration tree for m's N processes, in m's
// storage. The node capacity is min(⌊rank/2⌋, N), so an infinite-rank
// primitive yields a single flat G-DSM instance.
func NewTree(m *memsim.Machine, prim phi.Primitive) *Tree {
	n := m.NumProcs()
	t := trees.New(m)
	if n == 1 {
		// One process needs no arbitration at all.
		*t = Tree{prim: prim, n: n, cap: 1}
		return t
	}
	c := min(prim.Rank()/2, n)
	if c < 2 {
		panic(fmt.Sprintf("core: arbitration tree needs a primitive of rank >= 4, but %s has rank %d", prim.Name(), prim.Rank()))
	}
	levels := TreeHeight(prim, n)
	*t = Tree{prim: prim, n: n, cap: c, levels: levels, nodes: treeLevels.Make(m, levels)}
	width := n
	for l := range t.nodes {
		width = (width + c - 1) / c
		t.nodes[l] = treeNodes.Make(m, width)
		for i := range t.nodes[l] {
			t.nodes[l][i] = NewGDSMSized(m, prim, c, memsim.NamePrefix(nil, fmt.Sprintf("tree.L%d.%d", l, i)))
		}
	}
	return t
}

// TreeHeight returns the Height of the tree NewTree builds for n
// processes over prim, without building it: level ℓ has ⌈n / c^(ℓ+1)⌉
// nodes of c = min(⌊rank/2⌋, n) slots, up to the one covering all.
func TreeHeight(prim phi.Primitive, n int) (levels int) {
	c := max(min(prim.Rank()/2, n), 2)
	for width := n; width > 1; width = (width + c - 1) / c {
		levels++
	}
	return levels
}

// Name implements harness.Algorithm.
func (t *Tree) Name() string {
	return fmt.Sprintf("tree(c=%d)/%s", t.cap, t.prim.Name())
}

// Height returns the number of internal-node levels a process
// traverses (Θ(log_c N)).
func (t *Tree) Height() int { return t.levels }

// node returns the node and slot for process id at the given level.
func (t *Tree) node(id, level int) (*GDSM, int) {
	group := id
	for l := 0; l < level; l++ {
		group /= t.cap
	}
	return t.nodes[level][group/t.cap], group % t.cap
}

// Acquire ascends from the process's leaf to the root, entering each
// node's G-DSM instance.
func (t *Tree) Acquire(p *memsim.Proc) {
	for level := 0; level < t.levels; level++ {
		node, slot := t.node(p.ID(), level)
		node.AcquireSlot(p, slot)
	}
}

// Release descends from the root back to the leaf, releasing the nodes
// in the reverse of acquisition order.
func (t *Tree) Release(p *memsim.Proc) {
	for level := t.levels - 1; level >= 0; level-- {
		node, slot := t.node(p.ID(), level)
		node.ReleaseSlot(p, slot)
	}
}
