// Package core implements the paper's contributed algorithms on the
// simulated machine:
//
//   - GCC — Algorithm G-CC (Fig. 2): the generic O(1)-RMR mutual
//     exclusion algorithm for CC machines, driven by any fetch-and-φ
//     primitive of rank ≥ 2N;
//   - GDSM — Algorithm G-DSM (Fig. 3): its DSM counterpart, obtained
//     through the Sec. 3 await transformation (Site);
//   - Tree — the arbitration tree of Theorem 1, giving Θ(log_r N) RMR
//     from any primitive of rank r ≥ 4;
//   - T0 — Algorithm T0 (Fig. 6), the Θ(log N / log log N) algorithm
//     over the Node_Type object (Fig. 5);
//   - T — Algorithm T (Fig. 10), the same bound from any
//     self-resettable fetch-and-φ primitive of rank ≥ 3.
package core

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// Word is re-exported for brevity.
type Word = memsim.Word

// Queue-id encoding for the QueueId array: ⊥, queue 0, queue 1.
const (
	qidBottom Word = 0
	qidQueue0 Word = 1
)

// GCC is Algorithm G-CC. Two waiting queues, each with a tail pointer
// updated by the fetch-and-φ primitive, are switched over time so that
// neither tail is ever hit by more than 2N invocations between resets;
// the heads of the two queues are arbitrated by a two-process mutex.
// Its busy-waits target globally-homed signal and state words — the
// paper presents it as O(1) on CC machines and applies the Sec. 3
// transformation (G-DSM) to make the spinning local on DSM.
//
//fetchphilint:nonlocal G-CC is the paper's CC-machine algorithm; G-DSM is its local-spin DSM counterpart
//fetchphilint:rmr O(1) Theorem 1: O(1) RMR on CC for any primitive of rank >= 2N
type GCC struct {
	queuePair
	two *twoproc.Mutex
}

// queuePair is the state Algorithms G-CC and G-DSM (abortable or not)
// share, which they embed: two waiting queues, each with a tail
// updated by the fetch-and-φ primitive, a position counter and a
// Signal family; the per-slot Active and QueueId words; and each
// slot's private state.
type queuePair struct {
	m     *memsim.Machine
	prim  phi.Primitive
	slots int
	name  memsim.Prefix // prefixes every variable's label

	currentQueue memsim.Var
	tail         [2]memsim.Var
	position     [2]memsim.Var
	signal       [2]*memsim.Dict // Signal[j] keyed by fetch-and-φ value
	active       []memsim.Var    // Active[slot]
	queueID      []memsim.Var    // QueueId[slot]
	st           []gccState

	// skipStaleClear disables the stale-signal completion in
	// exchangeQueues — the E8a ablation that demonstrates why the
	// printed algorithm needs it.
	skipStaleClear bool

	// posFromPrev enables the fetch-and-increment specialization the
	// paper's conclusion hints at ("by exploiting the semantics of a
	// particular primitive, our algorithms could be optimized
	// considerably"): with fetch-and-increment, the k-th enqueuer of
	// a generation receives exactly k−1 from the tail, which IS its
	// queue position — so the shared Position counters (a read and a
	// write per exit, on a contended line) vanish.
	posFromPrev bool
}

// gccState is slot-private state carried from Acquire to Release. (At
// the top level each process owns one slot; inside an arbitration-tree
// node the processes of one subtree share a slot, one at a time.)
type gccState struct {
	inv  phi.Invoker
	idx  int  // queue joined by the last Acquire
	self Word // value the last Acquire wrote to the tail
	prev Word // value the last Acquire received from the tail
}

// The storage the algorithm objects of this package are carved from.
// Each object lives until its machine is released (see memsim.Slab).
var (
	gccs           = memsim.NewSlab[GCC]()
	gdsms          = memsim.NewSlab[GDSM]()
	gdsmAbortables = memsim.NewSlab[GDSMAbortable]()
	markPairs      = memsim.NewSlab[[2]*memsim.Dict]()
	tokenLocks     = memsim.NewSlab[TokenAbortable]()
	trees          = memsim.NewSlab[Tree]()
	treeLevels     = memsim.NewSlab[[]*GDSM]()
	treeNodes      = memsim.NewSlab[*GDSM]()
	gccStates      = memsim.NewSlab[gccState]()
	words          = memsim.NewSlab[Word]()
)

// newQueuePair builds, in m's storage, the queues of an object named
// name for slots competitors on prim. at is where the object keeps the
// pair (&obj.name): labels are joined lazily, so its variables may
// point there before the pair is stored.
func newQueuePair(m *memsim.Machine, at *memsim.Prefix, name memsim.Prefix, prim phi.Primitive, slots int) queuePair {
	st := gccStates.Make(m, slots)
	for s := range st {
		st[s].inv = phi.NewInvoker(prim, s)
	}
	return queuePair{
		m:            m,
		prim:         prim,
		slots:        slots,
		name:         name,
		currentQueue: m.NewVarIn(at, ".CurrentQueue", memsim.HomeGlobal, 0),
		tail: [2]memsim.Var{
			m.NewVarIn(at, ".Tail[0]", memsim.HomeGlobal, phi.Bottom),
			m.NewVarIn(at, ".Tail[1]", memsim.HomeGlobal, phi.Bottom),
		},
		position: [2]memsim.Var{
			m.NewVarIn(at, ".Position[0]", memsim.HomeGlobal, 0),
			m.NewVarIn(at, ".Position[1]", memsim.HomeGlobal, 0),
		},
		signal: [2]*memsim.Dict{
			m.NewDictIn(at, ".Signal[0]", memsim.HomeGlobal, 0),
			m.NewDictIn(at, ".Signal[1]", memsim.HomeGlobal, 0),
		},
		active:  m.NewArrayIn(at, ".Active", slots, memsim.HomeGlobal, 0),
		queueID: m.NewArrayIn(at, ".QueueId", slots, memsim.HomeGlobal, qidBottom),
		st:      st,
	}
}

// NewGCC builds an instance for m's N processes on top of prim, whose
// rank must be at least 2N.
func NewGCC(m *memsim.Machine, prim phi.Primitive) *GCC {
	return NewGCCSized(m, prim, m.NumProcs(), memsim.NamePrefix(nil, "gcc"))
}

// NewGCCSized builds an instance arbitrating `slots` competitors, where
// competitor identities are slot numbers 0..slots-1 passed explicitly
// to AcquireSlot/ReleaseSlot. Different processes may use a slot at
// different times as long as slot occupancy is exclusive (an
// arbitration tree guarantees this structurally). prim's rank must be
// at least 2·slots. The instance is m's storage.
func NewGCCSized(m *memsim.Machine, prim phi.Primitive, slots int, name memsim.Prefix) *GCC {
	if r := prim.Rank(); r < 2*slots {
		panic(fmt.Sprintf("core: G-CC needs rank >= 2N = %d, but %s has rank %d", 2*slots, prim.Name(), r))
	}
	g := gccs.New(m)
	*g = GCC{
		queuePair: newQueuePair(m, &g.name, name, prim, slots),
		two:       twoproc.New(m, memsim.NamePrefix(&g.name, ".two")),
	}
	return g
}

// Name implements harness.Algorithm.
func (g *GCC) Name() string {
	if g.posFromPrev {
		return "g-cc-specialized/" + g.prim.Name()
	}
	return "g-cc/" + g.prim.Name()
}

// Acquire implements the entry section (Fig. 2, lines 1–11) with the
// caller's process id as the slot.
func (g *GCC) Acquire(p *memsim.Proc) { g.AcquireSlot(p, p.ID()) }

// Release implements the exit section with the caller's id as slot.
func (g *GCC) Release(p *memsim.Proc) { g.ReleaseSlot(p, p.ID()) }

// AcquireSlot performs the entry section for the competitor occupying
// the given slot.
func (g *GCC) AcquireSlot(p *memsim.Proc, slot int) {
	st := &g.st[slot]

	p.Write(g.queueID[slot], qidBottom)            // 1
	p.Write(g.active[slot], 1)                     // 2
	idx := int(p.Read(g.currentQueue))             // 3
	p.Write(g.queueID[slot], qidQueue0+Word(idx))  // 4
	input := st.inv.UpdateInput()                  // 7 (counter advance)
	prev := p.FetchPhi(g.tail[idx], g.prim, input) // 5
	self := g.prim.Apply(prev, input)              // 6
	if prev != phi.Bottom {                        // 8
		sig := g.signal[idx].At(prev)
		p.AwaitTrue(sig) // 9
		p.Write(sig, 0)  // 10
	}
	g.two.Acquire(p, idx) // 11

	st.idx, st.self, st.prev = idx, self, prev
}

// ReleaseSlot performs the exit section for the competitor occupying
// the given slot.
func (g *GCC) ReleaseSlot(p *memsim.Proc, slot int) {
	st := &g.st[slot]
	idx := st.idx

	var pos Word
	if g.posFromPrev {
		pos = st.prev // the fetch value is the position, by f&i semantics
	} else {
		pos = p.Read(g.position[idx])   // 12
		p.Write(g.position[idx], pos+1) // 13
	}
	g.two.Release(p, idx) // 14
	switch {
	case pos < Word(g.slots) && pos != Word(slot) && p.Read(g.active[pos]) != 0: // 15
		q := int(pos)                                   // 16
		p.Await(func(read func(memsim.Var) Word) bool { // 17–18
			return read(g.active[q]) == 0 || read(g.queueID[q]) == qidQueue0+Word(idx)
		}, g.active[q], g.queueID[q])
	case pos == Word(g.slots): // 19
		g.exchangeQueues(p, idx)
	}
	p.Write(g.signal[idx].At(st.self), 1) // 23
	p.Write(g.active[slot], 0)            // 24
}

// exchangeQueues resets the old queue and makes it current (Fig. 2,
// lines 20–22; Fig. 3, lines 38–40). Invariant (I1) guarantees the old
// queue is empty here.
//
// Completion of the printed algorithm: the last enqueuer of the old
// queue's ended generation set Signal[1−idx][self] with no successor to
// consume it; that value is exactly the old tail's current value. If
// left set, a process in a LATER generation of that queue that obtains
// the same fetch-and-φ value as its predecessor's self (values may
// recur once the tail is reset to ⊥) would skip waiting and break the
// queue discipline. We clear the single stale key before resetting the
// tail; this costs O(1) reads/writes and is safe precisely because of
// (I1). See DESIGN.md, "Deviations". Under abortable G-DSM the clear
// also covers the signal a marker relay can establish at the tail
// after its waiter withdrew.
func (q *queuePair) exchangeQueues(p *memsim.Proc, idx int) {
	old := 1 - idx
	q.assertOldQueueEmpty(p, old)
	if !q.skipStaleClear {
		if last := p.Read(q.tail[old]); last != phi.Bottom {
			p.Write(q.signal[old].At(last), 0)
		}
	}
	p.Write(q.tail[old], phi.Bottom) // 20
	if !q.posFromPrev {
		p.Write(q.position[old], 0) // 21; implicit in the tail reset otherwise
	}
	p.Write(q.currentQueue, Word(old)) // 22
}

// assertOldQueueEmpty checks the paper's invariant (I1) at the moment
// it is needed: when the process at position N exchanges the queues,
// no slot may still be executing in the old queue. The check inspects
// machine state host-side (no simulated cost) and turns a violated
// invariant into an immediate, attributable failure instead of silent
// downstream corruption.
func (q *queuePair) assertOldQueueEmpty(p *memsim.Proc, old int) {
	for slot := 0; slot < q.slots; slot++ {
		if q.m.Value(q.active[slot]) != 0 && q.m.Value(q.queueID[slot]) == qidQueue0+Word(old) {
			p.Fail("core: invariant I1 violated: slot %d still active in old queue %d at exchange", slot, old)
		}
	}
}

// NewGCCFetchInc builds the fetch-and-increment specialization of
// G-CC: queue positions are read off the fetch values instead of the
// shared Position counters, removing two operations and one contended
// variable per exit (see the posFromPrev field). Semantically
// equivalent to NewGCC(m, phi.FetchAndIncrement{}); measured in
// ablation E8f.
func NewGCCFetchInc(m *memsim.Machine) *GCC {
	g := NewGCCSized(m, phi.FetchAndIncrement{}, m.NumProcs(), memsim.NamePrefix(nil, "gcc-fi"))
	g.posFromPrev = true
	return g
}

// NewGCCWithoutStaleClear builds the algorithm exactly as printed in
// Fig. 2, WITHOUT the stale-signal completion. It exists only for the
// E8a ablation: under schedules where a queue generation's last
// fetch-and-φ value recurs in a later generation, it violates mutual
// exclusion.
func NewGCCWithoutStaleClear(m *memsim.Machine, prim phi.Primitive) *GCC {
	g := NewGCC(m, prim)
	g.skipStaleClear = true
	return g
}
