package baseline

import (
	"fetchphi/internal/memsim"
	"fetchphi/internal/twoproc"
)

// YangAndersonTree is the classic Θ(log N) read/write-only mutual
// exclusion algorithm (Yang & Anderson, Distributed Computing 1995):
// a binary arbitration tree whose nodes are two-process read/write
// mutexes; each process ascends from its statically assigned leaf slot
// to the root, playing side 0 or 1 at each node according to its path.
//
// The paper cites this construction twice: as the source of its
// Acquire₂/Release₂ component, and as the read/write baseline that
// fetch-and-φ primitives beat — Θ(log N) versus the fetch-and-φ
// results of O(1) (rank 2N), Θ(log_r N), and Θ(log N / log log N).
// Having it in the registry makes that comparison measurable.
type YangAndersonTree struct {
	n      int
	levels int
	// nodes[lev][idx]: the two-process mutex at depth lev (0 = just
	// below the root... levels-1 = leaf-adjacent), following the same
	// heap layout as core.Tree.
	nodes [][]*twoproc.Mutex
}

// NewYangAndersonTree builds the tree for m's N processes.
func NewYangAndersonTree(m *memsim.Machine) *YangAndersonTree {
	n := m.NumProcs()
	t := &YangAndersonTree{n: n}
	width := n
	for width > 1 {
		width = (width + 1) / 2
		level := make([]*twoproc.Mutex, width)
		for i := range level {
			level[i] = twoproc.New(m, memsim.NamePrefix(nil, "ya.node"))
		}
		t.nodes = append(t.nodes, level)
		t.levels++
	}
	return t
}

// Name implements harness.Algorithm.
func (t *YangAndersonTree) Name() string { return "yang-anderson-tree" }

// Height returns the number of two-process nodes on each path
// (⌈log₂ N⌉).
func (t *YangAndersonTree) Height() int { return t.levels }

// node returns the mutex and side for process id at the given level
// (0 = nearest the leaves).
func (t *YangAndersonTree) node(id, level int) (*twoproc.Mutex, int) {
	group := id >> level
	return t.nodes[level][group>>1], group & 1
}

// Acquire ascends the tree.
func (t *YangAndersonTree) Acquire(p *memsim.Proc) {
	for level := 0; level < t.levels; level++ {
		mu, side := t.node(p.ID(), level)
		mu.Acquire(p, side)
	}
}

// Release descends the tree, releasing in the reverse of acquisition
// order (root first), so a process's subtree sibling cannot reach a
// node before its release there has completed.
func (t *YangAndersonTree) Release(p *memsim.Proc) {
	for level := t.levels - 1; level >= 0; level-- {
		mu, side := t.node(p.ID(), level)
		mu.Release(p, side)
	}
}
