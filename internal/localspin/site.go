// Package localspin implements the paper's Sec. 3 transformation that
// converts CC-style "await B" busy-waits into DSM local-spin
// handshakes. Waits, the value every paper algorithm waits and signals
// through, has the untransformed await as its plain form and the
// transformation as its site form: G-CC is G-DSM with plain waits, and
// the Sec. 4 trees and barrier take the site form on DSM only.
package localspin

import (
	"fetchphi/internal/memsim"
	"fetchphi/internal/twoproc"
)

// Word is re-exported for brevity.
type Word = memsim.Word

// Waits waits on, and establishes, the conditions of a family of
// busy-wait sites keyed by Word, in one of two forms chosen when it is
// built (New):
//
//   - the plain form, the zero Waits, is the untransformed algorithm:
//     a wait is a bare await on the variables its condition reads, a
//     signal runs only its establishing write, and nothing is
//     allocated;
//   - the site form runs each wait and signal at key J through the
//     Sec. 3 handshake of site J (see site), so that a waiter spins
//     only on its own Spin variable.
//
// A condition is one of the shapes the algorithms wait on (WaitTrue,
// WaitZero, WaitEither) rather than a closure, so that each plain
// await names exactly the variables its condition reads.
type Waits struct {
	sites *siteSet // nil in the plain form
}

// New returns the site form of a family named name if local is set,
// and the plain form otherwise.
func New(m *memsim.Machine, name memsim.Prefix, local bool) Waits {
	if !local {
		return Waits{}
	}
	return Waits{sites: newSiteSet(m, name)}
}

// ForModel returns the form a wait on m needs to spin locally: the
// site form on DSM, where an await on another process's variable spins
// remotely, and the plain form on the cache-coherent models, where it
// spins on a cached copy.
func ForModel(m *memsim.Machine, name memsim.Prefix) Waits {
	return New(m, name, m.Model() == memsim.DSM)
}

// WaitTrue blocks p until v ≠ 0, waiting at key.
func (w Waits) WaitTrue(p *memsim.Proc, key Word, v memsim.Var) {
	if w.sites == nil {
		p.AwaitTrue(v)
		return
	}
	w.sites.at(key).wait(p, func(read func(memsim.Var) Word) bool { return read(v) != 0 })
}

// WaitZero blocks p until v = 0, waiting at key.
func (w Waits) WaitZero(p *memsim.Proc, key Word, v memsim.Var) {
	if w.sites == nil {
		p.AwaitEq(v, 0)
		return
	}
	w.sites.at(key).wait(p, func(read func(memsim.Var) Word) bool { return read(v) == 0 })
}

// WaitEither blocks p until a = 0 or b = want, waiting at key.
func (w Waits) WaitEither(p *memsim.Proc, key Word, a, b memsim.Var, want Word) {
	if w.sites == nil {
		p.Await(func(read func(memsim.Var) Word) bool { return read(a) == 0 || read(b) == want }, a, b)
		return
	}
	w.sites.at(key).wait(p, func(read func(memsim.Var) Word) bool { return read(a) == 0 || read(b) == want })
}

// WaitTrueAbortable is WaitTrue for abortable entry sections. In the
// site form an abort request that reaches p while it spins is settled
// against the establisher under the site lock:
//
//   - condition not yet established: the registration is withdrawn
//     (Waiter[J] := ⊥) and onAbort runs INSIDE the critical section, so
//     callers can publish an abort marker that the future establisher
//     is guaranteed to observe. Returns true (withdrew).
//   - condition already established: the signaller has committed to
//     this waiter, and its spin write may still be in flight. The write
//     is consumed (a bounded wait: the signaller performs it in O(1) of
//     its own steps) before returning false — Spin[p] is shared by all
//     of p's sites, and a stale true would satisfy a future wait at a
//     different site. The caller proceeds exactly as if WaitTrue
//     returned.
//
// Every step of the abort path is bounded by a constant number of this
// process's own scheduling points plus the signaller's O(1) critical
// section, which is what makes withdrawal wait-free in the simulator's
// own-steps metric. The plain form has no lock to settle that race
// under, so it waits as WaitTrue does and never withdraws.
func (w Waits) WaitTrueAbortable(p *memsim.Proc, key Word, v memsim.Var, onAbort func()) (withdrew bool) {
	if w.sites == nil {
		p.AwaitTrue(v)
		return false
	}
	return w.sites.at(key).waitAbortable(p, func(read func(memsim.Var) Word) bool { return read(v) != 0 }, onAbort)
}

// Signal establishes key's condition on behalf of p: establish must
// perform the write(s) that make the waited-on condition true. In the
// site form, a waiter registered before the establishment is then
// released through its spin variable.
func (w Waits) Signal(p *memsim.Proc, key Word, establish func()) {
	if w.sites == nil {
		establish()
		return
	}
	w.sites.at(key).signal(p, establish)
}

// Visit runs body inside key's waiter-side critical section, mutually
// exclusive with every Signal at key. It supports non-blocking site
// transactions such as the exit-wait delegation of the G-DSM handshake
// extension: inspect the condition and register follow-up work
// atomically with respect to the establisher. The plain form has no
// lock and only runs body.
func (w Waits) Visit(p *memsim.Proc, key Word, body func()) {
	if w.sites == nil {
		body()
		return
	}
	site := w.sites.at(key)
	site.mu.Acquire(p, 0)
	body()
	site.mu.Release(p, 0)
}

// Prepare allocates key's site now instead of at its first wait or
// signal, for a user whose variables are allocated in a fixed order.
// The plain form has nothing to allocate.
func (w Waits) Prepare(key Word) {
	if w.sites != nil {
		w.sites.at(key)
	}
}

// site implements the paper's Sec. 3 transformation of one busy-wait
// condition site J, converting a CC-style "await B" into a DSM
// local-spin handshake. The transformation is applicable when (as in
// Algorithm G-CC) a unique process establishes B, and B stays true
// until the await terminates.
//
// A waiting process runs (lines a–h of the paper):
//
//	Acquire₂(J, 0); flag := B; Waiter[J] := (flag ? ⊥ : p);
//	Spin[p] := false; Release₂(J, 0);
//	if ¬flag { await Spin[p]; Waiter[J] := ⊥ }
//
// and the establishing process runs (lines i–m):
//
//	Acquire₂(J, 1); B := true; next := Waiter[J]; Release₂(J, 1);
//	if next ≠ ⊥ { Spin[next] := true }
//
// Spin[p] is the per-process spin variable homed at p, shared by all of
// a process's sites (a process waits at one site at a time).
type site struct {
	mu     *twoproc.Mutex
	waiter memsim.Var
	spin   *memsim.Dict
	// waiterName is Waiter[J]'s label, "family.Waiter{J}", formatted
	// only if something asks for it.
	waiterName memsim.Prefix
}

// siteSet manages the transformation state for a family of condition
// sites: one two-process mutex and one Waiter variable per site key,
// and the shared per-process Spin variables. Its sites are named
// "family.mu{J}" and "family.Waiter{J}", its Spin variables
// "family.Spin[p]".
type siteSet struct {
	m     *memsim.Machine
	name  memsim.Prefix
	spin  *memsim.Dict
	sites memsim.Keyed[*site]
}

// The storage siteSets and sites are carved from.
var (
	siteSets = memsim.NewSlab[siteSet]()
	sites    = memsim.NewSlab[site]()
)

// newSiteSet returns an empty site family in m's storage. Sites are
// materialized on first use, deterministically within the accessing
// process's turn.
func newSiteSet(m *memsim.Machine, name memsim.Prefix) *siteSet {
	s := siteSets.New(m)
	// Labels are joined lazily, so &s.name may be taken before the
	// literal stores name there.
	*s = siteSet{m: m, name: name, spin: m.NewProcDictIn(&s.name, ".Spin", 0)}
	return s
}

// at returns the site for key J.
func (s *siteSet) at(key Word) *site {
	if st, ok := s.sites.Get(key); ok {
		return st
	}
	st := sites.New(s.m)
	// As in newSiteSet, &st.waiterName is taken before it is stored.
	// The mutex's variables are allocated before Waiter's, the order
	// labels are pinned in.
	*st = site{
		mu:         twoproc.New(s.m, memsim.KeyedPrefix(&s.name, ".mu", key)),
		waiter:     s.m.NewVarIn(&st.waiterName, "", memsim.HomeGlobal, 0),
		spin:       s.spin,
		waiterName: memsim.KeyedPrefix(&s.name, ".Waiter", key),
	}
	s.sites.Put(key, st)
	return st
}

// wait blocks process p until the condition holds, evaluating it under
// the site lock and spinning only on p's own Spin variable. cond must
// read shared state through the supplied read function.
func (st *site) wait(p *memsim.Proc, cond func(read func(memsim.Var) Word) bool) {
	mine := st.spin.At(Word(p.ID()))
	st.mu.Acquire(p, 0)      // a
	flag := cond(p.Reader()) // b
	if flag {
		p.Write(st.waiter, 0) // c (⊥ branch)
	} else {
		p.Write(st.waiter, Word(p.ID())+1) // c
	}
	p.Write(mine, 0)    // d
	st.mu.Release(p, 0) // e
	if !flag {          // f
		p.AwaitTrue(mine)     // g — the only busy-wait, local on DSM
		p.Write(st.waiter, 0) // h
	}
}

// waitAbortable is wait for abortable entry sections; see
// Waits.WaitTrueAbortable.
func (st *site) waitAbortable(p *memsim.Proc, cond func(read func(memsim.Var) Word) bool, onAbort func()) (withdrew bool) {
	mine := st.spin.At(Word(p.ID()))
	st.mu.Acquire(p, 0)      // a
	flag := cond(p.Reader()) // b
	if flag {
		p.Write(st.waiter, 0) // c (⊥ branch)
	} else {
		p.Write(st.waiter, Word(p.ID())+1) // c
	}
	p.Write(mine, 0)    // d
	st.mu.Release(p, 0) // e
	if flag {
		return false
	}
	if !p.AwaitAbortable(func(read func(memsim.Var) Word) bool { // g
		return read(mine) != 0
	}, mine) {
		p.Write(st.waiter, 0) // h
		return false
	}
	// Aborted mid-spin: settle the race with the establisher under the
	// site lock.
	st.mu.Acquire(p, 0)
	established := cond(p.Reader())
	if !established {
		p.Write(st.waiter, 0)
		onAbort()
		st.mu.Release(p, 0)
		return true
	}
	st.mu.Release(p, 0)
	p.AwaitTrue(mine)     // consume the in-flight spin write
	p.Write(st.waiter, 0) // h
	return false
}

// signal runs establish on behalf of process p (lines i–m) and, if a
// waiter registered before the establishment, releases it via its spin
// variable.
func (st *site) signal(p *memsim.Proc, establish func()) {
	st.mu.Acquire(p, 1)       // i
	establish()               // j
	next := p.Read(st.waiter) // k
	st.mu.Release(p, 1)       // l
	if next != 0 {            // m
		p.Write(st.spin.At(next-1), 1)
	}
}
