package core

import (
	"fmt"
	"math"

	"fetchphi/internal/barrier"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/queue"
	"fetchphi/internal/twoproc"
)

// T is Algorithm T (Fig. 10): the Θ(log N / log log N) arbitration
// tree driven by a generic *self-resettable* fetch-and-φ primitive of
// rank ≥ 3. It has the same promotion/queue/barrier skeleton as T0,
// but each node is represented by plain fetch-and-φ variables instead
// of the Node_Type object:
//
//	Lock[n][0]    — primary-winner lock (fetch-and-update/reset)
//	WaiterLock[n] — primary-waiter lock (fetch-and-update, write-reset)
//	Lock[n][1]    — secondary-winner lock (fetch-and-update, write-reset)
//	Winner[n][0,1], Waiter[n] — identity registers (reads/writes)
//
// A process tries the three locks in order; primary and secondary
// winners ascend (so up to two processes can pass a node per regime),
// waiters park until promoted. Because a rank-3 primitive's values may
// recur after three invocations, a releasing primary winner compares
// the fetch-and-reset's return with the value its own update wrote: a
// mismatch proves an intervening arrival, whose eventual primary
// waiter is then enqueued. The self-resettability guarantee (⊥ is
// returned only to the first invocation, no matter how many follow) is
// what keeps each regime's winner unique.
type T struct {
	prim phi.SelfResettable

	n        int
	degree   int
	maxLevel int

	lock0      [][]memsim.Var // Lock[lev][idx][0]
	lock1      [][]memsim.Var // Lock[lev][idx][1]
	waiterLock [][]memsim.Var // WaiterLock[lev][idx]
	winner0    [][]memsim.Var // Winner[lev][idx][0]
	winner1    [][]memsim.Var // Winner[lev][idx][1]
	waiter     [][]memsim.Var // Waiter[lev][idx]
	nodeBase   []int          // global node-id offset per level

	spin     []memsim.Var
	inTree   []memsim.Var
	wq       *queue.Queue
	promoted memsim.Var
	bar      *barrier.Barrier
	two      *twoproc.Mutex

	// rootTwo arbitrates the (up to two) concurrent root acquirers:
	// the node protocol deliberately lets both a primary and a
	// secondary winner pass each node, so the root can be "acquired"
	// by two processes at once. The ICDCS text routes every root
	// acquirer to side 0 of the promoted-vs-normal mutex, which two
	// concurrent winners would break; this additional two-process
	// mutex (primary winner = side 0, secondary winner = side 1)
	// serializes them first, at O(1) extra RMRs. See DESIGN.md,
	// "Deviations".
	rootTwo *twoproc.Mutex

	// inTreeSites holds the Sec. 3 transformation sites for the exit
	// section's "await ¬InTree[q]" wait (nil on CC machines).
	inTreeSites *SiteSet

	st []tState
}

// tState is the per-process private state.
type tState struct {
	breakLevel int
	rootSide   int                         // side used on rootTwo when breakLevel == 0
	lockVal    []Word                      // lock[lev]: value my update wrote
	inv        map[memsim.Var]*phi.Invoker // per-variable invocation counters
}

// NewT builds Algorithm T with the paper's degree m = √(log₂ N).
func NewT(m *memsim.Machine, prim phi.SelfResettable) *T {
	n := m.NumProcs()
	deg := int(math.Round(math.Sqrt(math.Log2(float64(n) + 1))))
	if deg < 2 {
		deg = 2
	}
	return NewTWithDegree(m, prim, deg)
}

// NewTWithDegree builds Algorithm T with an explicit tree degree.
func NewTWithDegree(m *memsim.Machine, prim phi.SelfResettable, degree int) *T {
	if degree < 2 {
		panic(fmt.Sprintf("core: T degree must be >= 2, got %d", degree))
	}
	if prim.Rank() < 3 {
		panic(fmt.Sprintf("core: Algorithm T needs rank >= 3, but %s has rank %d", prim.Name(), prim.Rank()))
	}
	n := m.NumProcs()
	t := &T{
		prim:     prim,
		n:        n,
		degree:   degree,
		spin:     m.NewPerProcArray("t.Spin", 0),
		inTree:   m.NewPerProcArray("t.InTree", 0),
		wq:       queue.New(m, "t.wq"),
		promoted: m.NewVar("t.Promoted", memsim.HomeGlobal, 0),
		bar:      barrier.New(m, "t.bar"),
		two:      twoproc.New(m, memsim.NamePrefix(nil, "t.two")),
		rootTwo:  twoproc.New(m, memsim.NamePrefix(nil, "t.rootTwo")),
		st:       make([]tState, n),
	}
	if m.Model() == memsim.DSM {
		t.inTreeSites = NewSiteSet(m, memsim.NamePrefix(nil, "t.intree"))
	}

	// Build levels bottom-up, as in T0.
	var widths []int
	width := n
	for {
		widths = append(widths, width)
		if width == 1 {
			break
		}
		width = (width + degree - 1) / degree
	}
	t.maxLevel = len(widths)
	t.lock0 = make([][]memsim.Var, t.maxLevel+1)
	t.lock1 = make([][]memsim.Var, t.maxLevel+1)
	t.waiterLock = make([][]memsim.Var, t.maxLevel+1)
	t.winner0 = make([][]memsim.Var, t.maxLevel+1)
	t.winner1 = make([][]memsim.Var, t.maxLevel+1)
	t.waiter = make([][]memsim.Var, t.maxLevel+1)
	t.nodeBase = make([]int, t.maxLevel+1)
	nextID := 0
	for i, w := range widths {
		lev := t.maxLevel - i
		t.nodeBase[lev] = nextID
		nextID += w
		t.lock0[lev] = m.NewArray(fmt.Sprintf("t.Lock0[L%d]", lev), w, memsim.HomeGlobal, phi.Bottom)
		t.lock1[lev] = m.NewArray(fmt.Sprintf("t.Lock1[L%d]", lev), w, memsim.HomeGlobal, phi.Bottom)
		t.waiterLock[lev] = m.NewArray(fmt.Sprintf("t.WaiterLock[L%d]", lev), w, memsim.HomeGlobal, phi.Bottom)
		t.winner0[lev] = m.NewArray(fmt.Sprintf("t.Winner0[L%d]", lev), w, memsim.HomeGlobal, 0)
		t.winner1[lev] = m.NewArray(fmt.Sprintf("t.Winner1[L%d]", lev), w, memsim.HomeGlobal, 0)
		t.waiter[lev] = m.NewArray(fmt.Sprintf("t.Waiter[L%d]", lev), w, memsim.HomeGlobal, 0)
	}
	for p := 0; p < n; p++ {
		t.st[p] = tState{
			lockVal: make([]Word, t.maxLevel+1),
			inv:     make(map[memsim.Var]*phi.Invoker),
		}
	}
	return t
}

// Name implements harness.Algorithm.
func (t *T) Name() string { return fmt.Sprintf("t(m=%d)/%s", t.degree, t.prim.Name()) }

// MaxLevel returns the tree height.
func (t *T) MaxLevel() int { return t.maxLevel }

// nodeIndex returns process id's node index at the given level.
func (t *T) nodeIndex(id, lev int) int {
	idx := id
	for l := t.maxLevel; l > lev; l-- {
		idx /= t.degree
	}
	return idx
}

// nodeID returns the global node identity used as a site key.
func (t *T) nodeID(lev, idx int) Word { return Word(t.nodeBase[lev] + idx) }

// invoker returns process p's invocation counter for variable v.
func (t *T) invoker(p *memsim.Proc, v memsim.Var) *phi.Invoker {
	st := &t.st[p.ID()]
	if inv, ok := st.inv[v]; ok {
		return inv
	}
	inv := new(phi.Invoker)
	*inv = phi.NewInvoker(t.prim, p.ID())
	st.inv[v] = inv
	return inv
}

// fetchUpdate is the paper's fetch-and-update: invoke the primitive
// with the next α input and return the variable's old and new values.
func (t *T) fetchUpdate(p *memsim.Proc, v memsim.Var) (prev, next Word) {
	inv := t.invoker(p, v)
	in := inv.UpdateInput()
	prev = p.FetchPhi(v, t.prim, in)
	return prev, t.prim.Apply(prev, in)
}

// fetchReset is the paper's fetch-and-reset: invoke the primitive with
// the β input paired with this process's last α on v.
func (t *T) fetchReset(p *memsim.Proc, v memsim.Var) (prev, next Word) {
	inv := t.invoker(p, v)
	in := inv.ResetInput()
	prev = p.FetchPhi(v, t.prim, in)
	return prev, t.prim.Apply(prev, in)
}

// setInTreeFalse publishes that p stopped accessing the tree.
func (t *T) setInTreeFalse(p *memsim.Proc) {
	me := p.ID()
	if t.inTreeSites == nil {
		p.Write(t.inTree[me], 0)
		return
	}
	t.inTreeSites.At(Word(me)).Signal(p, func() { p.Write(t.inTree[me], 0) })
}

// awaitNotInTree blocks until process q stopped accessing the tree
// (Fig. 10 line 33).
func (t *T) awaitNotInTree(p *memsim.Proc, q int) {
	if t.inTreeSites == nil {
		p.AwaitEq(t.inTree[q], 0)
		return
	}
	t.inTreeSites.At(Word(q)).Wait(p, func(read func(memsim.Var) Word) bool {
		return read(t.inTree[q]) == 0
	})
}

// glanceWaiter reads the node's registered primary waiter, if any
// (-1 when none). Unlike the paper's blocking "repeat q := Waiter[n]
// until q ≠ ⊥" (Fig. 10 lines 49 and 57), this is a single read: the
// blocking form can wait forever when the expected waiter registered
// and finished before this exit ran, or parked as an undetectable
// secondary waiter instead. The child scan that accompanies every
// glance (see Release) restores the liveness the await was providing.
// See DESIGN.md, "Deviations".
func (t *T) glanceWaiter(p *memsim.Proc, lev, idx int) int {
	return int(p.Read(t.waiter[lev][idx])) - 1
}

// acquireNode implements Fig. 10's Acquire_Node (lines 14–25).
func (t *T) acquireNode(p *memsim.Proc, lev int) AcquireResult {
	me := p.ID()
	idx := t.nodeIndex(me, lev)
	if prev, next := t.fetchUpdate(p, t.lock0[lev][idx]); prev == phi.Bottom { // 15
		p.Write(t.winner0[lev][idx], Word(me)+1) // 16
		t.st[me].lockVal[lev] = next             // 17
		return Winner                            // 18 (PRIMARY_WINNER)
	}
	if prev, _ := t.fetchUpdate(p, t.waiterLock[lev][idx]); prev == phi.Bottom { // 19
		p.Write(t.waiter[lev][idx], Word(me)+1) // 20
		return PrimaryWaiter                    // 21
	}
	if prev, _ := t.fetchUpdate(p, t.lock1[lev][idx]); prev == phi.Bottom { // 22
		p.Write(t.winner1[lev][idx], Word(me)+1) // 23
		return secondaryWinner                   // 24
	}
	return SecondaryWaiter // 25
}

// secondaryWinner extends AcquireResult with Algorithm T's fourth
// outcome (Fig. 10's SECONDARY_WINNER; T0 has only three outcomes).
// Secondary winners ascend the tree just like primary winners.
const secondaryWinner AcquireResult = iota + 100

// Acquire implements the entry section (Fig. 10, lines 1–13).
func (t *T) Acquire(p *memsim.Proc) {
	me := p.ID()
	p.Write(t.spin[me], 0)   // 1
	p.Write(t.inTree[me], 1) // 2
	leafIdx := t.nodeIndex(me, t.maxLevel)
	p.Write(t.winner0[t.maxLevel][leafIdx], Word(me)+1) // 3
	rootSide := 0
	for lev := t.maxLevel - 1; lev >= 1; lev-- { // 4
		result := t.acquireNode(p, lev)                    // 5
		if result != Winner && result != secondaryWinner { // 6
			t.setInTreeFalse(p)       // 7
			p.AwaitTrue(t.spin[me])   // 8
			t.st[me].breakLevel = lev // 9
			t.two.Acquire(p, 1)       // 10
			return
		}
		if lev == 1 && result == secondaryWinner {
			rootSide = 1
		}
	}
	t.setInTreeFalse(p) // 11
	t.st[me].breakLevel = 0
	t.st[me].rootSide = rootSide   // 12
	t.rootTwo.Acquire(p, rootSide) // serialize the two root acquirers
	t.two.Acquire(p, 0)            // 13
}

// Release implements the exit section (Fig. 10, lines 26–66).
func (t *T) Release(p *memsim.Proc) {
	me := p.ID()
	st := &t.st[me]
	t.bar.Wait(p)           // 26
	if st.breakLevel == 0 { // 27
		t.two.Release(p, 0) // 28
		t.rootTwo.Release(p, st.rootSide)
	} else {
		t.two.Release(p, 1) // 29
		lev := st.breakLevel
		idx := t.nodeIndex(me, lev) // 30
		// 31–36, with two deviations from the printed Fig. 10 (see
		// DESIGN.md, "Deviations"): the winner identity is read with
		// a single glance (the blocking "repeat until ≠ ⊥" can
		// orphan when the regime is mid-death), and the node is NOT
		// reset on the winner's behalf — reopening it before q
		// finished its critical section would admit a new primary
		// winner concurrent with q on the final mutexes. q's own
		// exit performs the release (line 48), as in T0.
		if p.Read(t.lock0[lev][idx]) != phi.Bottom { // 31: winner regime in place
			if q := int(p.Read(t.winner0[lev][idx])) - 1; q >= 0 { // 32
				t.awaitNotInTree(p, q) // 33
				t.wq.Enqueue(p, q)     // 36
			}
		}
		if p.Read(t.waiter[lev][idx]) == Word(me)+1 { // 37: I am the primary waiter
			p.Write(t.waiter[lev][idx], 0)              // 38
			p.Write(t.waiterLock[lev][idx], phi.Bottom) // 39
		}
		// 40–43: enqueue both winners of every child of n.
		t.scanChildren(p, lev, idx)
	}
	// 44–58: reopen each node p acquired on the way up.
	for lev := st.breakLevel + 1; lev <= t.maxLevel-1; lev++ {
		idx := t.nodeIndex(me, lev) // 45
		switch {
		case p.Read(t.winner0[lev][idx]) == Word(me)+1: // 46: primary winner
			p.Write(t.winner0[lev][idx], 0)                  // 47
			prev, next := t.fetchReset(p, t.lock0[lev][idx]) // 48
			if prev != st.lockVal[lev] {
				// Someone invoked after my update. The printed
				// algorithm blocks here until a primary waiter
				// registers (line 49), but the register/unregister
				// cycle may already have completed, or the invokers
				// may all be parked as secondary waiters — either
				// way the await would hang forever. Instead: restore
				// ⊥ first (closing the window in which arrivals can
				// still fail against this dead regime), then glance
				// at the waiter slot, then scan the children. Every
				// process that failed against my regime won a child
				// of this node BEFORE failing, so the scan catches
				// whoever the glance cannot. See DESIGN.md,
				// "Deviations".
				if next != phi.Bottom { // 51
					p.Write(t.lock0[lev][idx], phi.Bottom) // 52
				}
				if q := t.glanceWaiter(p, lev, idx); q >= 0 { // 49
					t.wq.Enqueue(p, q) // 50
				}
				t.scanChildren(p, lev, idx)
			}
		case p.Read(t.winner1[lev][idx]) == Word(me)+1: // 53: secondary winner
			p.Write(t.winner1[lev][idx], 0)                   // 54
			p.Write(t.lock1[lev][idx], phi.Bottom)            // 55
			if p.Read(t.waiterLock[lev][idx]) != phi.Bottom { // 56
				if q := t.glanceWaiter(p, lev, idx); q >= 0 { // 57
					t.wq.Enqueue(p, q) // 58
				}
				t.scanChildren(p, lev, idx)
			}
		}
	}
	leafIdx := t.nodeIndex(me, t.maxLevel)
	p.Write(t.winner0[t.maxLevel][leafIdx], 0) // 59
	t.wq.Remove(p, me)                         // 60
	q := p.Read(t.promoted)                    // 61
	if q == Word(me)+1 || q == 0 {             // 62
		r := t.wq.Dequeue(p) // 63
		if r >= 0 {
			p.Write(t.promoted, Word(r)+1) // 64
			p.Write(t.spin[r], 1)          // 65
		} else {
			p.Write(t.promoted, 0)
		}
	}
	t.bar.Signal(p) // 66
}

// scanChildren enqueues the registered winners (both slots) of every
// child of node (lev, idx) — the discovery sweep of Fig. 10 lines
// 40–43, also used by the glance-based waiter checks. Enqueued
// processes that need no help remove themselves at line 60.
func (t *T) scanChildren(p *memsim.Proc, lev, idx int) {
	t.forEachChild(lev, idx, func(childLev, childIdx int) {
		for _, reg := range [2][][]memsim.Var{t.winner0, t.winner1} {
			if q := p.Read(reg[childLev][childIdx]); q != 0 {
				t.wq.Enqueue(p, int(q)-1)
			}
		}
	})
}

// forEachChild visits (level, index) of every existing child of node
// (lev, idx).
func (t *T) forEachChild(lev, idx int, visit func(childLev, childIdx int)) {
	if lev >= t.maxLevel {
		return
	}
	childLev := lev + 1
	base := idx * t.degree
	for i := 0; i < t.degree; i++ {
		if base+i < len(t.lock0[childLev]) {
			visit(childLev, base+i)
		}
	}
}
