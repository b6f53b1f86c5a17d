// Package localspin implements the paper's Sec. 3 transformation that
// converts CC-style "await B" busy-waits into DSM local-spin
// handshakes. It is the building block behind Algorithm G-DSM and the
// DSM variants of the Sec. 4 tree algorithms' non-local waits.
package localspin

import (
	"fetchphi/internal/memsim"
	"fetchphi/internal/twoproc"
)

// Word is re-exported for brevity.
type Word = memsim.Word

// Site implements the paper's Sec. 3 transformation of one busy-wait
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
type Site struct {
	mu     *twoproc.Mutex
	waiter memsim.Var
	spin   *memsim.Dict
	// waiterName is Waiter[J]'s label, "family.Waiter{J}", formatted
	// only if something asks for it.
	waiterName memsim.Prefix
}

// SiteSet manages the transformation state for a family of condition
// sites: one two-process mutex and one Waiter variable per site key,
// and the shared per-process Spin variables. Its sites are named
// "family.mu{J}" and "family.Waiter{J}", its Spin variables
// "family.Spin[p]".
type SiteSet struct {
	m     *memsim.Machine
	name  memsim.Prefix
	spin  *memsim.Dict
	sites memsim.Keyed[*Site]
}

// The storage SiteSets and Sites are carved from.
var (
	siteSets = memsim.NewSlab[SiteSet]()
	sites    = memsim.NewSlab[Site]()
)

// NewSiteSet returns an empty site family in m's storage. Sites are
// materialized on first use, deterministically within the accessing
// process's turn.
func NewSiteSet(m *memsim.Machine, name memsim.Prefix) *SiteSet {
	s := siteSets.New(m)
	// Labels are joined lazily, so &s.name may be taken before the
	// literal stores name there.
	*s = SiteSet{m: m, name: name, spin: m.NewProcDictIn(&s.name, ".Spin", 0)}
	return s
}

// At returns the site for key J.
func (s *SiteSet) At(key Word) *Site {
	if site, ok := s.sites.Get(key); ok {
		return site
	}
	site := sites.New(s.m)
	// As in NewSiteSet, &site.waiterName is taken before it is stored.
	// The mutex's variables are allocated before Waiter's, the order
	// labels are pinned in.
	*site = Site{
		mu:         twoproc.New(s.m, memsim.KeyedPrefix(&s.name, ".mu", key)),
		waiter:     s.m.NewVarIn(&site.waiterName, "", memsim.HomeGlobal, 0),
		spin:       s.spin,
		waiterName: memsim.KeyedPrefix(&s.name, ".Waiter", key),
	}
	s.sites.Put(key, site)
	return site
}

// Wait blocks process p until the condition holds, evaluating it under
// the site lock and spinning only on p's own Spin variable. cond must
// read shared state through the supplied read function.
func (site *Site) Wait(p *memsim.Proc, cond func(read func(memsim.Var) Word) bool) {
	mine := site.spin.At(Word(p.ID()))

	site.mu.Acquire(p, 0)    // a
	flag := cond(p.Reader()) // b
	if flag {
		p.Write(site.waiter, 0) // c (⊥ branch)
	} else {
		p.Write(site.waiter, Word(p.ID())+1) // c
	}
	p.Write(mine, 0)      // d
	site.mu.Release(p, 0) // e
	if !flag {            // f
		p.AwaitTrue(mine)       // g — the only busy-wait, local on DSM
		p.Write(site.waiter, 0) // h
	}
}

// WaitAbortable is Wait for abortable entry sections. If an abort
// request reaches p while it spins, the site decides atomically —
// under the site lock, mutually exclusive with Signal — which of the
// two outcomes happened:
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
//     different site. The caller proceeds exactly as if Wait returned.
//
// Every step of the abort path is bounded by a constant number of this
// process's own scheduling points plus the signaller's O(1) critical
// section, which is what makes withdrawal wait-free in the simulator's
// own-steps metric.
func (site *Site) WaitAbortable(p *memsim.Proc, cond func(read func(memsim.Var) Word) bool, onAbort func()) (withdrew bool) {
	mine := site.spin.At(Word(p.ID()))

	site.mu.Acquire(p, 0)    // a
	flag := cond(p.Reader()) // b
	if flag {
		p.Write(site.waiter, 0) // c (⊥ branch)
	} else {
		p.Write(site.waiter, Word(p.ID())+1) // c
	}
	p.Write(mine, 0)      // d
	site.mu.Release(p, 0) // e
	if flag {
		return false
	}
	if !p.AwaitAbortable(func(read func(memsim.Var) Word) bool { // g
		return read(mine) != 0
	}, mine) {
		p.Write(site.waiter, 0) // h
		return false
	}
	// Aborted mid-spin: settle the race with the establisher under the
	// site lock.
	site.mu.Acquire(p, 0)
	established := cond(p.Reader())
	if !established {
		p.Write(site.waiter, 0)
		onAbort()
		site.mu.Release(p, 0)
		return true
	}
	site.mu.Release(p, 0)
	p.AwaitTrue(mine)       // consume the in-flight spin write
	p.Write(site.waiter, 0) // h
	return false
}

// Visit runs body inside the site's waiter-side critical section,
// mutually exclusive with every Signal on the same site. It supports
// non-blocking site transactions such as the exit-wait delegation of
// the G-DSM handshake extension: inspect the condition and register
// follow-up work atomically with respect to the establisher.
func (site *Site) Visit(p *memsim.Proc, body func()) {
	site.mu.Acquire(p, 0)
	body()
	site.mu.Release(p, 0)
}

// Signal establishes the condition on behalf of process p: establish
// must perform the write(s) that make the waited-on condition true. If
// a waiter registered before the establishment, Signal releases it via
// its spin variable.
func (site *Site) Signal(p *memsim.Proc, establish func()) {
	site.mu.Acquire(p, 1)       // i
	establish()                 // j
	next := p.Read(site.waiter) // k
	site.mu.Release(p, 1)       // l
	if next != 0 {              // m
		p.Write(site.spin.At(next-1), 1)
	}
}
