package core

import (
	"fmt"

	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// GDSM is Algorithm G-DSM (Fig. 3): Algorithm G-CC with every busy
// wait converted by the Sec. 3 transformation, so that all spinning is
// on per-process variables homed at the spinner. It has O(1) RMR
// complexity on DSM (and CC) machines for any primitive of rank ≥ 2N.
// Built with the plain form of its waits instead, it is G-CC itself
// (GCC).
//
// Two waiting queues each have a tail updated by the fetch-and-φ
// primitive, a position counter and a Signal family; every slot has
// Active and QueueId words and private state. The two condition-site
// families of Fig. 3 are:
//
//   - queue sites, keyed by (queue, fetch-and-φ value): an enqueuer
//     waits for its predecessor's Signal[idx][prev] (Waiter2 in the
//     paper's variable list);
//   - process sites, keyed by process id: an exiting process at
//     position q waits for process q to leave the old queue (Waiter1).
//
// Fig. 3's boldface lines map to the Waits waits (13–21, 28–36) and
// Waits.Signal (4–8, 41–45, 46–50).
//
//fetchphilint:rmr O(1) Theorem 1 via the Sec. 3 transformation: O(1) RMR on CC and DSM
type GDSM struct {
	m     *memsim.Machine
	prim  phi.Primitive
	slots int
	name  memsim.Prefix // prefixes every variable's label
	alg   string        // what Name reports before the primitive

	currentQueue memsim.Var
	tail         [2]memsim.Var
	position     [2]memsim.Var
	signal       [2]*memsim.Dict // Signal[j] keyed by fetch-and-φ value
	active       []memsim.Var    // Active[slot]
	queueID      []memsim.Var    // QueueId[slot]
	st           []slotState
	two          *twoproc.Mutex

	procWaits  localspin.Waits // Waiter1 sites, keyed by process id
	queueWaits localspin.Waits // Waiter2 sites, keyed by (queue, value)

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

	// noExitWait enables the exit-handshake extension the paper
	// sketches after presenting G-CC ("with a slightly more
	// complicated handshake, such waiting can be eliminated"): an
	// exiting process that finds its position's process q still in
	// the old queue does not wait for q — it registers a delegation
	// in delegate[q] (atomically with q's state, via q's process
	// site) instructing q to signal the successor when q finishes.
	noExitWait bool
	// delegate[q] holds an encoded (queue, value) successor signal q
	// must fire, or 0.
	delegate []memsim.Var
	// mark[j] holds the abort markers of queue j's sites (see
	// GDSMAbortable); plain G-DSM leaves it nil and follows none.
	mark *[2]*memsim.Dict
}

// slotState is slot-private state carried from Acquire to Release. (At
// the top level each process owns one slot; inside an arbitration-tree
// node the processes of one subtree share a slot, one at a time.)
type slotState struct {
	inv  phi.Invoker
	idx  int  // queue joined by the last Acquire
	self Word // value the last Acquire wrote to the tail
	prev Word // value the last Acquire received from the tail
}

// NewGDSM builds an instance for m's N processes on top of prim, whose
// rank must be at least 2N.
func NewGDSM(m *memsim.Machine, prim phi.Primitive) *GDSM {
	return NewGDSMSized(m, prim, m.NumProcs(), memsim.NamePrefix(nil, "gdsm"))
}

// NewGDSMNoExitWait builds G-DSM with the exit-handshake extension:
// exit sections never block waiting for an old-queue process (the
// paper's sketched improvement). The successor signal is delegated to
// the process being waited on and fired when it finishes.
func NewGDSMNoExitWait(m *memsim.Machine, prim phi.Primitive) *GDSM {
	g := NewGDSMSized(m, prim, m.NumProcs(), memsim.NamePrefix(nil, "gdsm-nw"))
	g.alg, g.noExitWait = "g-dsm-nowait", true
	return g
}

// NewGDSMSized builds an instance arbitrating `slots` competitors,
// where competitor identities are slot numbers 0..slots-1 passed
// explicitly to AcquireSlot/ReleaseSlot. Different processes may use a
// slot at different times as long as slot occupancy is exclusive (an
// arbitration tree guarantees this structurally). prim's rank must be
// at least 2·slots. The instance is m's storage.
func NewGDSMSized(m *memsim.Machine, prim phi.Primitive, slots int, name memsim.Prefix) *GDSM {
	g := gdsms.New(m)
	initGDSM(g, m, prim, slots, name, "g-dsm", true)
	return g
}

// initGDSM builds g in m's storage: an instance named name for slots
// competitors on prim, whose Name starts with alg. local chooses the
// form of its waits once: the Sec. 3 sites (G-DSM), or plain awaits
// (G-CC). Delegate comes with the sites, since the handshake extension
// registers its delegations through them.
func initGDSM(g *GDSM, m *memsim.Machine, prim phi.Primitive, slots int, name memsim.Prefix, alg string, local bool) {
	if r := prim.Rank(); r < 2*slots {
		panic(fmt.Sprintf("core: %s needs rank >= 2N = %d, but %s has rank %d", alg, 2*slots, prim.Name(), r))
	}
	st := slotStates.Make(m, slots)
	for s := range st {
		st[s].inv = phi.NewInvoker(prim, s)
	}
	// Labels are joined lazily, so &g.name may be taken before the
	// literal stores name there.
	*g = GDSM{
		m:            m,
		prim:         prim,
		slots:        slots,
		name:         name,
		alg:          alg,
		currentQueue: m.NewVarIn(&g.name, ".CurrentQueue", memsim.HomeGlobal, 0),
		tail: [2]memsim.Var{
			m.NewVarIn(&g.name, ".Tail[0]", memsim.HomeGlobal, phi.Bottom),
			m.NewVarIn(&g.name, ".Tail[1]", memsim.HomeGlobal, phi.Bottom),
		},
		position: [2]memsim.Var{
			m.NewVarIn(&g.name, ".Position[0]", memsim.HomeGlobal, 0),
			m.NewVarIn(&g.name, ".Position[1]", memsim.HomeGlobal, 0),
		},
		signal: [2]*memsim.Dict{
			m.NewDictIn(&g.name, ".Signal[0]", memsim.HomeGlobal, 0),
			m.NewDictIn(&g.name, ".Signal[1]", memsim.HomeGlobal, 0),
		},
		active:     m.NewArrayIn(&g.name, ".Active", slots, memsim.HomeGlobal, 0),
		queueID:    m.NewArrayIn(&g.name, ".QueueId", slots, memsim.HomeGlobal, qidBottom),
		st:         st,
		two:        twoproc.New(m, memsim.NamePrefix(&g.name, ".two")),
		procWaits:  localspin.New(m, memsim.NamePrefix(&g.name, ".W1"), local),
		queueWaits: localspin.New(m, memsim.NamePrefix(&g.name, ".W2"), local),
	}
	if local {
		g.delegate = m.NewArrayIn(&g.name, ".Delegate", slots, memsim.HomeGlobal, 0)
	}
}

// Name implements harness.Algorithm.
func (g *GDSM) Name() string { return g.alg + "/" + g.prim.Name() }

// queueKey packs a (queue index, fetch-and-φ value) site key.
func queueKey(idx int, v Word) Word { return v<<1 | Word(idx) }

// Acquire implements the entry section (Fig. 3, lines 1–22; Fig. 2,
// lines 1–11) with the caller's process id as the slot.
func (g *GDSM) Acquire(p *memsim.Proc) {
	if !g.AcquireSlot(p, p.ID()) {
		p.Fail("core: %s withdrew with no abort scheduled", g.Name())
	}
}

// Release implements the exit section with the caller's id as slot.
func (g *GDSM) Release(p *memsim.Proc) { g.ReleaseSlot(p, p.ID()) }

// AcquireSlot performs the entry section for the competitor occupying
// the given slot. It returns false if the request withdrew at one of
// the three abort windows GDSMAbortable describes; with no abort
// pending it performs exactly the steps of Fig. 3 (of Fig. 2 with
// plain waits).
func (g *GDSM) AcquireSlot(p *memsim.Proc, slot int) bool {
	st := &g.st[slot]
	me := slot

	p.Write(g.queueID[me], qidBottom)  // 1
	p.Write(g.active[me], 1)           // 2
	idx := int(p.Read(g.currentQueue)) // 3
	// 4–8: setting QueueId[p] may release an exit-section waiter —
	// or, with the handshake extension, pick up a delegated
	// successor signal to fire.
	g.signalSelfSite(p, me, func() {
		p.Write(g.queueID[me], qidQueue0+Word(idx)) // 5
	})
	if p.AbortRequested() {
		// Not yet enqueued: withdraw by going inactive. The self-site
		// signal both releases any exit-section waiter on this slot and
		// drains a delegation registered in the meantime.
		g.deactivate(p, me)
		return false
	}
	input := st.inv.UpdateInput()                  // 11 (counter advance)
	prev := p.FetchPhi(g.tail[idx], g.prim, input) // 9
	self := g.prim.Apply(prev, input)              // 10
	st.idx, st.self, st.prev = idx, self, prev
	if prev != phi.Bottom { // 12
		sig := g.signal[idx].At(prev)
		// 13–20: wait for the predecessor's signal (14), spinning
		// locally. A withdrawal marks our node: our successor waits at
		// self, so the relay skips us.
		if g.queueWaits.WaitTrueAbortable(p, queueKey(idx, prev), sig,
			func() { p.Write(g.mark[idx].At(prev), self) },
		) {
			// Withdrawn without the baton: the node is dead, the relay
			// will step over it; nothing to unwind but our activity.
			g.deactivate(p, me)
			return false
		}
		p.Write(sig, 0) // 21
	}
	if !g.two.AcquireAbortable(p, idx) { // 22
		// Withdrawn holding the baton: the inner acquisition was
		// abandoned (its rival, if any, was released by the
		// abandonment), but the queue still owes its successor a
		// signal and its generation a position step.
		g.exit(p, me, false)
		return false
	}
	return true
}

// ReleaseSlot performs the exit section for the competitor occupying
// the given slot.
func (g *GDSM) ReleaseSlot(p *memsim.Proc, slot int) { g.exit(p, slot, true) }

// exit performs the exit section (Fig. 3, lines 23–50; Fig. 2, lines
// 12–24) for slot me. held is false for a request that withdrew while
// awaiting the two-process lock: it skips the release it never
// acquired, and its position step needs no lock, since only a queue's
// baton holder touches that queue's position.
func (g *GDSM) exit(p *memsim.Proc, me int, held bool) {
	st := &g.st[me]
	idx := st.idx

	var pos Word
	if g.posFromPrev {
		pos = st.prev // the fetch value is the position, by f&i semantics
	} else {
		pos = p.Read(g.position[idx])   // 23
		p.Write(g.position[idx], pos+1) // 24
	}
	if held {
		g.two.Release(p, idx) // 25
	}
	delegated := false
	switch {
	case pos < Word(g.slots) && pos != Word(me) && p.Read(g.active[pos]) != 0: // 26
		q := int(pos) // 27
		if g.noExitWait {
			// Handshake extension: atomically with q's own state
			// transitions (the site mutex), either observe q done /
			// in my queue (no action needed) or leave q the duty of
			// signalling my successor.
			g.procWaits.Visit(p, pos, func() {
				stillOld := p.Read(g.active[q]) != 0 && p.Read(g.queueID[q]) != qidQueue0+Word(idx)
				if stillOld {
					p.Write(g.delegate[q], queueKey(idx, st.self)+1)
					delegated = true
				}
			})
		} else {
			// 28–36: wait for q to finish or reveal itself in my
			// queue.
			g.procWaits.WaitEither(p, pos, g.active[q], g.queueID[q], qidQueue0+Word(idx))
		}
	case pos == Word(g.slots): // 37
		g.exchangeQueues(p, idx)
	}
	if !delegated {
		// 41–45: signal the successor in my queue.
		g.signalSuccessor(p, idx, st.self)
	}
	// 46–50: go inactive, possibly releasing an exit-section waiter —
	// and fire any successor signal delegated to us.
	g.deactivate(p, me)
}

// deactivate clears Active[me] on me's own site (Fig. 3 lines 46–50).
func (g *GDSM) deactivate(p *memsim.Proc, me int) {
	g.signalSelfSite(p, me, func() {
		p.Write(g.active[me], 0) // 47
	})
}

// signalSuccessor performs Fig. 3 lines 41–45 for the given queue and
// fetch-and-φ value — by the owning process, or by a delegate under
// the handshake extension. An abortable instance establishes the
// signal through the marker relay instead, stepping over withdrawn
// waiters.
func (g *GDSM) signalSuccessor(p *memsim.Proc, idx int, self Word) {
	if g.mark != nil {
		relayGrants(p, g.queueWaits, func(k Word) Word { return queueKey(idx, k) }, g.signal[idx], g.mark[idx], self)
		return
	}
	sig := g.signal[idx].At(self)
	g.queueWaits.Signal(p, queueKey(idx, self), func() {
		p.Write(sig, 1) // 42
	})
}

// signalSelfSite runs one of the two establishing writes on process
// me's own site (Fig. 3 lines 4–8 and 46–50) and, under the handshake
// extension, drains a pending delegation: the establishment that makes
// the exit-waiter's condition true is exactly the moment the delegated
// successor signal becomes ours to fire.
func (g *GDSM) signalSelfSite(p *memsim.Proc, me int, establish func()) {
	var duty Word
	g.procWaits.Signal(p, Word(me), func() {
		establish()
		if g.noExitWait {
			duty = p.Read(g.delegate[me])
			if duty != 0 {
				p.Write(g.delegate[me], 0)
			}
		}
	})
	if duty != 0 {
		k := duty - 1
		g.signalSuccessor(p, int(k&1), k>>1)
	}
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
func (g *GDSM) exchangeQueues(p *memsim.Proc, idx int) {
	old := 1 - idx
	g.assertOldQueueEmpty(p, old)
	if !g.skipStaleClear {
		if last := p.Read(g.tail[old]); last != phi.Bottom {
			p.Write(g.signal[old].At(last), 0)
		}
	}
	p.Write(g.tail[old], phi.Bottom) // 20
	if !g.posFromPrev {
		p.Write(g.position[old], 0) // 21; implicit in the tail reset otherwise
	}
	p.Write(g.currentQueue, Word(old)) // 22
}

// assertOldQueueEmpty checks the paper's invariant (I1) at the moment
// it is needed: when the process at position N exchanges the queues,
// no slot may still be executing in the old queue. The check inspects
// machine state host-side (no simulated cost) and turns a violated
// invariant into an immediate, attributable failure instead of silent
// downstream corruption.
func (g *GDSM) assertOldQueueEmpty(p *memsim.Proc, old int) {
	for slot := 0; slot < g.slots; slot++ {
		if g.m.Value(g.active[slot]) != 0 && g.m.Value(g.queueID[slot]) == qidQueue0+Word(old) {
			p.Fail("core: invariant I1 violated: slot %d still active in old queue %d at exchange", slot, old)
		}
	}
}
