// Package core implements the paper's contributed algorithms on the
// simulated machine:
//
//   - GDSM — Algorithm G-DSM (Fig. 3): the generic O(1)-RMR mutual
//     exclusion algorithm for CC and DSM machines, driven by any
//     fetch-and-φ primitive of rank ≥ 2N, with every busy-wait put
//     through the Sec. 3 await transformation (localspin.Waits' site
//     form);
//   - GCC — Algorithm G-CC (Fig. 2), the CC-machine algorithm G-DSM is
//     derived from: the same entry and exit sections with every wait
//     left a plain await (localspin.Waits' plain form);
//   - Tree — the arbitration tree of Theorem 1, giving Θ(log_r N) RMR
//     from any primitive of rank r ≥ 4;
//   - T0 — Algorithm T0 (Fig. 6), the Θ(log N / log log N) algorithm
//     over the Node_Type object (Fig. 5);
//   - T — Algorithm T (Fig. 10), the same bound from any
//     self-resettable fetch-and-φ primitive of rank ≥ 3.
package core

import (
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// Word is re-exported for brevity.
type Word = memsim.Word

// Queue-id encoding for the QueueId array: ⊥, queue 0, queue 1.
const (
	qidBottom Word = 0
	qidQueue0 Word = 1
)

// GCC is Algorithm G-CC (Fig. 2). Two waiting queues, each with a tail
// pointer updated by the fetch-and-φ primitive, are switched over time
// so that neither tail is ever hit by more than 2N invocations between
// resets; the heads of the two queues are arbitrated by a two-process
// mutex. The paper derives G-DSM from it by putting every await
// through the Sec. 3 transformation, so it is a GDSM whose waits are
// plain awaits: they target globally-homed signal and state words,
// local on CC machines but remote on DSM.
//
//fetchphilint:nonlocal G-CC is the paper's CC-machine algorithm; G-DSM is its local-spin DSM counterpart
//fetchphilint:rmr O(1) Theorem 1: O(1) RMR on CC for any primitive of rank >= 2N
type GCC struct{ *GDSM }

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
	slotStates     = memsim.NewSlab[slotState]()
	words          = memsim.NewSlab[Word]()
)

// NewGCC builds an instance for m's N processes on top of prim, whose
// rank must be at least 2N.
func NewGCC(m *memsim.Machine, prim phi.Primitive) *GCC { return newGCC(m, prim, "gcc", "g-cc") }

// NewGCCFetchInc builds the fetch-and-increment specialization of
// G-CC: queue positions are read off the fetch values instead of the
// shared Position counters, removing two operations and one contended
// variable per exit (see GDSM.posFromPrev). Semantically equivalent to
// NewGCC(m, phi.FetchAndIncrement{}); measured in ablation E8f.
func NewGCCFetchInc(m *memsim.Machine) *GCC {
	g := newGCC(m, phi.FetchAndIncrement{}, "gcc-fi", "g-cc-specialized")
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

// newGCC builds, in m's storage, a G-CC for m's N processes named name
// whose Name starts with alg.
func newGCC(m *memsim.Machine, prim phi.Primitive, name, alg string) *GCC {
	g := gdsms.New(m)
	initGDSM(g, m, prim, m.NumProcs(), memsim.NamePrefix(nil, name), alg, false)
	c := gccs.New(m)
	*c = GCC{g}
	return c
}
