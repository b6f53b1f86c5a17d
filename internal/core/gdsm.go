package core

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// GDSM is Algorithm G-DSM (Fig. 3): Algorithm G-CC with every busy
// wait converted by the Sec. 3 transformation, so that all spinning is
// on per-process variables homed at the spinner. It has O(1) RMR
// complexity on DSM (and CC) machines for any primitive of rank ≥ 2N.
//
// The two condition-site families of Fig. 3 are:
//
//   - queue sites, keyed by (queue, fetch-and-φ value): an enqueuer
//     waits for its predecessor's Signal[idx][prev] (Waiter2 in the
//     paper's variable list);
//   - process sites, keyed by process id: an exiting process at
//     position q waits for process q to leave the old queue (Waiter1).
//
// Fig. 3's boldface lines map to Site.Wait (13–21, 28–36) and
// Site.Signal (4–8, 41–45, 46–50).
//
//fetchphilint:rmr O(1) Theorem 1 via the Sec. 3 transformation: O(1) RMR on CC and DSM
type GDSM struct {
	queuePair
	two *twoproc.Mutex

	procSites *SiteSet // Waiter1 sites, keyed by process id
	queueSite *SiteSet // Waiter2 sites, keyed by (queue, value)

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
	g.noExitWait = true
	return g
}

// NewGDSMSized builds an instance arbitrating `slots` competitors; see
// NewGCCSized for the slot contract. prim's rank must be at least
// 2·slots. The instance is m's storage.
func NewGDSMSized(m *memsim.Machine, prim phi.Primitive, slots int, name memsim.Prefix) *GDSM {
	if r := prim.Rank(); r < 2*slots {
		panic(fmt.Sprintf("core: G-DSM needs rank >= 2N = %d, but %s has rank %d", 2*slots, prim.Name(), r))
	}
	g := gdsms.New(m)
	*g = GDSM{
		queuePair: newQueuePair(m, &g.name, name, prim, slots),
		two:       twoproc.New(m, memsim.NamePrefix(&g.name, ".two")),
		procSites: NewSiteSet(m, memsim.NamePrefix(&g.name, ".W1")),
		queueSite: NewSiteSet(m, memsim.NamePrefix(&g.name, ".W2")),
		delegate:  m.NewArrayIn(&g.name, ".Delegate", m.NumProcs(), memsim.HomeGlobal, 0),
	}
	return g
}

// Name implements harness.Algorithm.
func (g *GDSM) Name() string {
	switch {
	case g.mark != nil:
		return "gdsm-abortable/" + g.prim.Name()
	case g.noExitWait:
		return "g-dsm-nowait/" + g.prim.Name()
	}
	return "g-dsm/" + g.prim.Name()
}

// queueKey packs a (queue index, fetch-and-φ value) site key.
func queueKey(idx int, v Word) Word { return v<<1 | Word(idx) }

// Acquire implements the entry section (Fig. 3, lines 1–22) with the
// caller's process id as the slot.
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
// pending it performs exactly the steps of Fig. 3.
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
	st.idx, st.self = idx, self
	if prev != phi.Bottom { // 12
		sig := g.signal[idx].At(prev)
		// 13–20: wait for the predecessor's signal (14), spinning
		// locally. A withdrawal marks our node: our successor waits at
		// self, so the relay skips us.
		if g.queueSite.At(queueKey(idx, prev)).WaitAbortable(p,
			func(read func(memsim.Var) Word) bool { return read(sig) != 0 },
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

// exit performs the exit section (Fig. 3, lines 23–50) for slot me.
// held is false for a request that withdrew while awaiting the
// two-process lock: it skips the release it never acquired, and its
// position step needs no lock, since only a queue's baton holder
// touches that queue's position.
func (g *GDSM) exit(p *memsim.Proc, me int, held bool) {
	st := &g.st[me]
	idx := st.idx

	pos := p.Read(g.position[idx])  // 23
	p.Write(g.position[idx], pos+1) // 24
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
			g.procSites.At(pos).Visit(p, func() {
				stillOld := p.Read(g.active[q]) != 0 && p.Read(g.queueID[q]) != qidQueue0+Word(idx)
				if stillOld {
					p.Write(g.delegate[q], queueKey(idx, st.self)+1)
					delegated = true
				}
			})
		} else {
			// 28–36: wait for q to finish or reveal itself in my
			// queue.
			g.procSites.At(pos).Wait(p, func(read func(memsim.Var) Word) bool {
				return read(g.active[q]) == 0 || read(g.queueID[q]) == qidQueue0+Word(idx)
			})
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
		relayGrants(p, func(k Word) *Site { return g.queueSite.At(queueKey(idx, k)) }, g.signal[idx], g.mark[idx], self)
		return
	}
	sig := g.signal[idx].At(self)
	g.queueSite.At(queueKey(idx, self)).Signal(p, func() {
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
	g.procSites.At(Word(me)).Signal(p, func() {
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
