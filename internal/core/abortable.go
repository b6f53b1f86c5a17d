package core

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// This file adds abortable mutual exclusion on top of the paper's
// machinery, in the direction of Jayanti & Jayanti's constant-
// amortized-RMR deterministic abortable mutex: a process may withdraw
// its request while still in the entry section, withdrawal is
// wait-free (a bounded number of the withdrawer's own steps), and the
// honest cost metric becomes AMORTIZED RMR per passage, where a
// passage is a request that either entered the critical section or
// withdrew.
//
// Both algorithms here use the same queue-unwinding idea, the
// ABORT-MARKER RELAY: a waiter that withdraws cannot excise its queue
// node (fetch-and-φ tails are append-only), so instead it deregisters
// from its wait site and leaves a marker at that site — written
// atomically with the establisher via the site's two-process lock —
// naming the site where ITS successor waits. A releaser that finds a
// marker does not establish the signal (nobody will consume it);
// it follows the marker and releases the successor's site instead,
// repeating until it finds a live waiter or the end of the queue.
// Every relay hop consumes one marker and every marker was paid for by
// one abort, so total relay work is bounded by total aborts: each
// passage, completed or withdrawn, costs O(1) amortized RMR on both
// CC and DSM machines.

// AbortableLock is the abortable counterpart of the Algorithm surface:
// AcquireAbortable returns false if the entry section observed a
// pending abort request (delivered by the memsim abort schedule) and
// withdrew — the caller must then finish the passage with
// memsim.Proc.AbortPassage, not Release. A request that loses the race
// with acquisition lapses: AcquireAbortable returns true and the
// passage completes normally. Acquire/Release retain their
// non-abortable contract, so every AbortableLock is also a valid
// harness Algorithm and runs the standard conformance suite unchanged.
type AbortableLock interface {
	Name() string
	Acquire(p *memsim.Proc)
	Release(p *memsim.Proc)
	AcquireAbortable(p *memsim.Proc) bool
}

// ---------------------------------------------------------------------
// TokenAbortable: the Jayanti-style constant-amortized-RMR baseline.
// ---------------------------------------------------------------------

// TokenAbortable is a token-FIFO abortable lock built directly on the
// abort-marker relay. Every request draws a globally unique token t
// (encoded (process, round)) and swaps it into the tail, learning its
// predecessor's token; it then waits — through a Sec. 3 site, so the
// spin is local on DSM — for Grant[prev] to be established. A released
// or withdrawn request hands the baton on by establishing Grant of its
// own token, following markers across withdrawn requests.
//
// Tokens are never reused, so grants persist harmlessly and no signal
// consumption or reset is needed; the unbounded Grant/Mark families
// mirror the paper's own use of variables indexed by unbounded
// fetch-and-φ values. Entry, exit, and withdrawal are each O(1)
// operations apart from the relay loop, whose total length is bounded
// by the number of withdrawals — O(1) amortized RMR per passage on CC
// and DSM.
//
//fetchphilint:rmr O(1) amortized: relay hops are prepaid one-for-one by aborts
type TokenAbortable struct {
	m     *memsim.Machine
	nproc int

	tail  memsim.Var   // last token swapped in; 0 = never used
	grant *memsim.Dict // grant[t] != 0: token t's holder has passed the baton
	mark  *memsim.Dict // mark[t]: waiter on grant[t] withdrew; relay to this token
	sites *SiteSet     // one Sec. 3 site per awaited token

	rounds []Word // private per-process token counters
	held   []Word // private: token of each process's open acquisition
}

// NewTokenAbortable builds an instance for m's N processes, in m's
// storage.
func NewTokenAbortable(m *memsim.Machine) *TokenAbortable {
	n := m.NumProcs()
	l := tokenLocks.New(m)
	*l = TokenAbortable{
		m:      m,
		nproc:  n,
		tail:   m.NewVar("token.Tail", memsim.HomeGlobal, 0),
		grant:  m.NewDict("token.Grant", memsim.HomeGlobal, 0),
		mark:   m.NewDict("token.Mark", memsim.HomeGlobal, 0),
		sites:  NewSiteSet(m, memsim.NamePrefix(nil, "token.W")),
		rounds: words.Make(m, n),
		held:   words.Make(m, n),
	}
	return l
}

// Name implements harness.Algorithm.
func (l *TokenAbortable) Name() string { return "token-abortable/fetch-and-store" }

// token draws the next unique nonzero token for p.
func (l *TokenAbortable) token(p *memsim.Proc) Word {
	t := l.rounds[p.ID()]*Word(l.nproc) + Word(p.ID()) + 1
	l.rounds[p.ID()]++
	return t
}

// Acquire implements the non-abortable entry section.
func (l *TokenAbortable) Acquire(p *memsim.Proc) {
	if !l.AcquireAbortable(p) {
		p.Fail("core: %s withdrew with no abort scheduled", l.Name())
	}
}

// AcquireAbortable implements the abortable entry section.
func (l *TokenAbortable) AcquireAbortable(p *memsim.Proc) bool {
	if p.AbortRequested() {
		return false // not yet enqueued: withdrawing is free
	}
	t := l.token(p)
	prev := p.FetchPhi(l.tail, phi.FetchAndStore{}, t)
	if prev != 0 {
		sig := l.grant.At(prev)
		if l.sites.At(prev).WaitAbortable(p,
			func(read func(memsim.Var) Word) bool { return read(sig) != 0 },
			func() { p.Write(l.mark.At(prev), t) },
		) {
			return false
		}
	}
	l.held[p.ID()] = t
	return true
}

// Release implements the exit section: establish the grant for our own
// token, relaying across markers left by withdrawn successors.
func (l *TokenAbortable) Release(p *memsim.Proc) {
	relayGrants(p, l.sites.At, l.grant, l.mark, l.held[p.ID()])
}

// relayGrants establishes the grant for key k at site(k); if the
// waiter there withdrew (marker present), the grant is skipped — it
// would never be consumed — and the baton follows the marker to the
// withdrawn waiter's own key. Marker reads and grant establishment
// happen inside the site's Signal critical section, mutually exclusive
// with the withdrawer's marker write, so exactly one of the two sides
// observes the other.
func relayGrants(p *memsim.Proc, site func(Word) *Site, grant, mark *memsim.Dict, k Word) {
	for {
		var marker Word
		sig := grant.At(k)
		site(k).Signal(p, func() {
			marker = p.Read(mark.At(k))
			if marker != 0 {
				p.Write(mark.At(k), 0)
			} else {
				p.Write(sig, 1)
			}
		})
		if marker == 0 {
			return
		}
		k = marker
	}
}

// ---------------------------------------------------------------------
// GDSMAbortable: Algorithm G-DSM with queue-node unwinding.
// ---------------------------------------------------------------------

// GDSMAbortable is the abortable variant of Algorithm G-DSM: a GDSM
// instance whose entry section (GDSM.AcquireSlot) may withdraw at
// three abort windows wired through the marker relay:
//
//   - before enqueueing: the request withdraws by re-announcing
//     inactivity through its own process site — it never held a queue
//     node, so nothing is unwound;
//   - while awaiting the predecessor's signal: the request deregisters
//     from the queue site and leaves a marker naming its own node, so
//     the baton skips it (the relay replaces Fig. 3's lines 41–45);
//   - while awaiting the two-process lock: the inner acquisition is
//     abandoned (twoproc.AcquireAbortable) but the request already
//     holds its queue's baton, so it performs the full exit-section
//     duties — position sweep, possible queue exchange, successor
//     relay — before going inactive, minus the two-process release.
//
// The instance always uses the delegation handshake (the noExitWait
// extension), so neither release nor withdrawal ever blocks on another
// process's progress — which is what keeps withdrawal wait-free and
// passages O(1) amortized RMR. What sets it apart from plain G-DSM is
// only its marker families (GDSM.mark).
//
// Withdrawn requests make fetch-and-φ values outlive the 2N-invocation
// window the rank analysis of Theorem 1 assumes, so the construction
// requires a primitive of infinite rank (fetch-and-increment,
// fetch-and-store, ...): values never alias, and the existing
// stale-signal clear at queue exchange covers the one signal a relay
// can strand at the tail.
//
//fetchphilint:rmr O(1) amortized: Theorem 1 plus marker relays prepaid by aborts
type GDSMAbortable struct{ *GDSM }

// NewGDSMAbortable builds an instance for m's N processes on top of
// prim, which must have infinite rank.
func NewGDSMAbortable(m *memsim.Machine, prim phi.Primitive) *GDSMAbortable {
	if prim.Rank() != phi.RankInfinite {
		panic(fmt.Sprintf("core: abortable G-DSM needs an infinite-rank primitive, but %s has rank %d",
			prim.Name(), prim.Rank()))
	}
	g := NewGDSMSized(m, prim, m.NumProcs(), memsim.NamePrefix(nil, "gdsm-abort"))
	g.noExitWait = true
	g.mark = markPairs.New(m)
	g.mark[0] = m.NewDictIn(&g.name, ".Mark[0]", memsim.HomeGlobal, 0)
	g.mark[1] = m.NewDictIn(&g.name, ".Mark[1]", memsim.HomeGlobal, 0)
	a := gdsmAbortables.New(m)
	*a = GDSMAbortable{g}
	return a
}

// AcquireAbortable implements the abortable entry section.
func (g *GDSMAbortable) AcquireAbortable(p *memsim.Proc) bool { return g.AcquireSlot(p, p.ID()) }

// Compile-time interface checks.
var (
	_ AbortableLock = (*TokenAbortable)(nil)
	_ AbortableLock = (*GDSMAbortable)(nil)
)
