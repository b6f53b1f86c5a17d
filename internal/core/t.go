package core

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// T is Algorithm T (Fig. 10): the Θ(log N / log log N) promotion tree
// (promotionTree, as in T0) driven by a generic *self-resettable*
// fetch-and-φ primitive of rank ≥ 3. Each node is represented by plain
// fetch-and-φ variables instead of the Node_Type object:
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
	*promotionTree
	prim phi.SelfResettable

	lock0      [][]memsim.Var // Lock[lev][idx][0]
	lock1      [][]memsim.Var // Lock[lev][idx][1]
	waiterLock [][]memsim.Var // WaiterLock[lev][idx]
	winner0    [][]memsim.Var // Winner[lev][idx][0]
	winner1    [][]memsim.Var // Winner[lev][idx][1]
	waiter     [][]memsim.Var // Waiter[lev][idx]

	// rootTwo serializes the two processes that can hold the root at
	// once, a primary winner (side 0) and a secondary one (side 1),
	// before side 0 of the final mutex, where Fig. 10 sends both. See
	// DESIGN.md, "Deviations".
	rootTwo *twoproc.Mutex

	st []tState
}

// The three lock words of a node a process invokes the primitive on,
// indexing its invocation counters.
const (
	lockPrimary   = iota // Lock[n][0]
	lockWaiter           // WaiterLock[n]
	lockSecondary        // Lock[n][1]
	nodeLocks
)

// tState is the per-process private state.
type tState struct {
	rootSide int           // side used on rootTwo when the process won the root
	lockVal  []Word        // lockVal[lev]: value my update of Lock[lev][0] wrote
	inv      []phi.Invoker // counters by (lev-1)*nodeLocks+lock, set up on first use
}

// NewT builds Algorithm T with the paper's degree m = √(log₂ N) (see
// TDegree).
func NewT(m *memsim.Machine, prim phi.SelfResettable) *T {
	return NewTWithDegree(m, prim, TDegree(m.NumProcs()))
}

// NewTWithDegree builds Algorithm T with an explicit tree degree.
func NewTWithDegree(m *memsim.Machine, prim phi.SelfResettable, degree int) *T {
	if prim.Rank() < 3 {
		panic(fmt.Sprintf("core: Algorithm T needs rank >= 3, but %s has rank %d", prim.Name(), prim.Rank()))
	}
	tree := newPromotionTree(m, "t", degree)
	levels := tree.maxLevel + 1
	t := ts.New(m)
	*t = T{
		promotionTree: tree,
		prim:          prim,
		rootTwo:       twoproc.New(m, memsim.NamePrefix(nil, "t.rootTwo")),
		lock0:         varLevels.Make(m, levels),
		lock1:         varLevels.Make(m, levels),
		waiterLock:    varLevels.Make(m, levels),
		winner0:       varLevels.Make(m, levels),
		winner1:       varLevels.Make(m, levels),
		waiter:        varLevels.Make(m, levels),
		st:            tStates.Make(m, tree.n),
	}
	for lev := tree.maxLevel; lev >= 1; lev-- {
		w := tree.width(lev)
		t.lock0[lev] = m.NewArray(fmt.Sprintf("t.Lock0[L%d]", lev), w, memsim.HomeGlobal, phi.Bottom)
		t.lock1[lev] = m.NewArray(fmt.Sprintf("t.Lock1[L%d]", lev), w, memsim.HomeGlobal, phi.Bottom)
		t.waiterLock[lev] = m.NewArray(fmt.Sprintf("t.WaiterLock[L%d]", lev), w, memsim.HomeGlobal, phi.Bottom)
		t.winner0[lev] = m.NewArray(fmt.Sprintf("t.Winner0[L%d]", lev), w, memsim.HomeGlobal, 0)
		t.winner1[lev] = m.NewArray(fmt.Sprintf("t.Winner1[L%d]", lev), w, memsim.HomeGlobal, 0)
		t.waiter[lev] = m.NewArray(fmt.Sprintf("t.Waiter[L%d]", lev), w, memsim.HomeGlobal, 0)
	}
	for p := range t.st {
		t.st[p].lockVal = words.Make(m, levels)
		t.st[p].inv = invokers.Make(m, tree.maxLevel*nodeLocks)
	}
	return t
}

// Name implements harness.Algorithm.
func (t *T) Name() string { return fmt.Sprintf("t(m=%d)/%s", t.degree, t.prim.Name()) }

// invoker returns process p's invocation counter for the given lock
// word of its node at level lev.
func (t *T) invoker(p *memsim.Proc, lev, lock int) *phi.Invoker {
	inv := &t.st[p.ID()].inv[(lev-1)*nodeLocks+lock]
	if inv.Primitive() == nil {
		*inv = phi.NewInvoker(t.prim, p.ID())
	}
	return inv
}

// fetchUpdate is the paper's fetch-and-update: invoke the primitive
// with the next α input on the given lock word of p's node at level
// lev and return the word's old and new values.
func (t *T) fetchUpdate(p *memsim.Proc, v memsim.Var, lev, lock int) (prev, next Word) {
	in := t.invoker(p, lev, lock).UpdateInput()
	prev = p.FetchPhi(v, t.prim, in)
	return prev, t.prim.Apply(prev, in)
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
	if prev, next := t.fetchUpdate(p, t.lock0[lev][idx], lev, lockPrimary); prev == phi.Bottom { // 15
		p.Write(t.winner0[lev][idx], Word(me)+1) // 16
		t.st[me].lockVal[lev] = next             // 17
		return Winner                            // 18 (PRIMARY_WINNER)
	}
	if prev, _ := t.fetchUpdate(p, t.waiterLock[lev][idx], lev, lockWaiter); prev == phi.Bottom { // 19
		p.Write(t.waiter[lev][idx], Word(me)+1) // 20
		return PrimaryWaiter                    // 21
	}
	if prev, _ := t.fetchUpdate(p, t.lock1[lev][idx], lev, lockSecondary); prev == phi.Bottom { // 22
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
	t.begin(p)                                                              // 1–2
	p.Write(t.winner0[t.maxLevel][t.nodeIndex(me, t.maxLevel)], Word(me)+1) // 3
	rootSide := 0
	for lev := t.maxLevel - 1; lev >= 1; lev-- { // 4
		result := t.acquireNode(p, lev)                    // 5
		if result != Winner && result != secondaryWinner { // 6
			t.park(p, lev) // 7–10
			return
		}
		if lev == 1 && result == secondaryWinner {
			rootSide = 1
		}
	}
	t.won(p)                       // 11
	t.st[me].rootSide = rootSide   // 12
	t.rootTwo.Acquire(p, rootSide) // serialize the two root acquirers
	t.two.Acquire(p, 0)            // 13
}

// Release implements the exit section (Fig. 10, lines 26–66).
func (t *T) Release(p *memsim.Proc) {
	me := p.ID()
	st := &t.st[me]
	brk := t.exitHead(p) // 26–29
	if brk == 0 {
		t.rootTwo.Release(p, st.rootSide)
	} else {
		idx := t.nodeIndex(me, brk) // 30
		// 31–36, with two deviations from the printed Fig. 10 (see
		// DESIGN.md, "Deviations"): the winner identity is read with
		// a single glance (the blocking "repeat until ≠ ⊥" can
		// orphan when the regime is mid-death), and the node is NOT
		// reset on the winner's behalf — reopening it before q
		// finished its critical section would admit a new primary
		// winner concurrent with q on the final mutexes. q's own
		// exit performs the release (line 48), as in T0.
		if p.Read(t.lock0[brk][idx]) != phi.Bottom { // 31: winner regime in place
			if q := int(p.Read(t.winner0[brk][idx])) - 1; q >= 0 { // 32
				t.inTreeWaits.WaitZero(p, Word(q), t.inTree[q]) // 33
				t.wq.Enqueue(p, q)                              // 36
			}
		}
		if p.Read(t.waiter[brk][idx]) == Word(me)+1 { // 37: I am the primary waiter
			p.Write(t.waiter[brk][idx], 0)              // 38
			p.Write(t.waiterLock[brk][idx], phi.Bottom) // 39
		}
		// 40–43: enqueue both winners of every child of n.
		t.scanChildren(p, brk, idx)
	}
	// 44–58: reopen each node p acquired on the way up.
	for lev := brk + 1; lev <= t.maxLevel-1; lev++ {
		idx := t.nodeIndex(me, lev) // 45
		switch {
		case p.Read(t.winner0[lev][idx]) == Word(me)+1: // 46: primary winner
			p.Write(t.winner0[lev][idx], 0) // 47
			// 48: fetch-and-reset, with the β paired with my last α.
			in := t.invoker(p, lev, lockPrimary).ResetInput()
			if prev := p.FetchPhi(t.lock0[lev][idx], t.prim, in); prev != st.lockVal[lev] {
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
				if t.prim.Apply(prev, in) != phi.Bottom { // 51
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
	p.Write(t.winner0[t.maxLevel][t.nodeIndex(me, t.maxLevel)], 0) // 59
	t.promote(p)                                                   // 60–66
}

// scanChildren enqueues the registered winners (both slots) of every
// child of node (lev, idx) — the discovery sweep of Fig. 10 lines
// 40–43, also used by the glance-based waiter checks. Enqueued
// processes that need no help remove themselves at line 60.
func (t *T) scanChildren(p *memsim.Proc, lev, idx int) {
	lo, hi := t.children(lev, idx)
	for c := lo; c < hi; c++ {
		for _, reg := range [2][][]memsim.Var{t.winner0, t.winner1} {
			if q := p.Read(reg[lev+1][c]); q != 0 {
				t.wq.Enqueue(p, int(q)-1)
			}
		}
	}
}
