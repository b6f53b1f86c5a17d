package nativelock

import (
	"fmt"
	"sync/atomic"
)

// TreeLock is a native binary arbitration tree of side-based Peterson
// locks — the Yang–Anderson construction's shape on real hardware. It
// needs NO read-modify-write instructions at all: every operation is an
// atomic load or store, making it a working demonstration of mutual
// exclusion from reads and writes alone (the class of algorithms the
// paper's fetch-and-φ constructions are measured against).
//
// Acquisition costs Θ(log n) lock words; each identity in 0..n-1 has a
// static leaf. Under heavy contention queue locks (MCS, CLH) behave
// better on real machines; TreeLock's value is completeness and its
// very cheap uncontended path.
type TreeLock struct {
	n      int
	levels int
	nodes  [][]petersonNode // nodes[level][idx]; level 0 nearest leaves
}

// petersonNode is one two-party Peterson lock, padded against false
// sharing.
type petersonNode struct {
	flag [2]atomic.Bool
	turn atomic.Int32
	_    [cacheLinePad - 6]byte
}

// NewTreeLock returns a tree lock for n static identities.
func NewTreeLock(n int) *TreeLock {
	if n < 1 {
		panic(fmt.Sprintf("nativelock: TreeLock needs n >= 1, got %d", n))
	}
	t := &TreeLock{n: n}
	width := n
	for width > 1 {
		width = (width + 1) / 2
		t.nodes = append(t.nodes, make([]petersonNode, width))
		t.levels++
	}
	return t
}

// node returns the Peterson node and side for an identity at a level.
func (t *TreeLock) node(id, level int) (*petersonNode, int) {
	group := id >> level
	return &t.nodes[level][group>>1], group & 1
}

// LockID acquires the lock for the given identity (0..n-1).
func (t *TreeLock) LockID(id int) {
	if id < 0 || id >= t.n {
		panic(fmt.Sprintf("nativelock: identity %d out of range 0..%d", id, t.n-1))
	}
	for level := 0; level < t.levels; level++ {
		nd, side := t.node(id, level)
		other := 1 - side
		nd.flag[side].Store(true)
		nd.turn.Store(int32(side))
		for i := 0; nd.flag[other].Load() && nd.turn.Load() == int32(side); i++ {
			spinWait(i)
		}
	}
}

// UnlockID releases the lock, descending the path in reverse.
func (t *TreeLock) UnlockID(id int) {
	for level := t.levels - 1; level >= 0; level-- {
		nd, side := t.node(id, level)
		nd.flag[side].Store(false)
	}
}
