package localspin

import "fetchphi/internal/memsim"

// RoundLock spins on a fresh cell per acquisition, made with
// NewKeyedVarIn, which homes key k at k mod N, keyed round·N + p as the
// two-process mutex keys its cells: the key is ≡ p (mod N), so the
// cell is homed at the spinner.
type RoundLock struct {
	n      int
	rounds []int
}

// NewRoundLock allocates the lock on m.
func NewRoundLock(m *memsim.Machine) *RoundLock {
	return &RoundLock{n: m.NumProcs(), rounds: make([]int, m.NumProcs())}
}

// Acquire implements the entry section.
func (l *RoundLock) Acquire(p *memsim.Proc) {
	l.rounds[p.ID()]++
	mine := p.Machine().NewKeyedVarIn(nil, "round.cell", Word(l.rounds[p.ID()])*Word(l.n)+Word(p.ID()), 0)
	p.AwaitTrue(mine)
}

// Release implements the exit section.
func (l *RoundLock) Release(p *memsim.Proc) {}

// PeerRoundLock makes its cell the same way, but keyed by the next
// process, where NewKeyedVarIn homes it: a remote spin.
type PeerRoundLock struct {
	n int
}

// NewPeerRoundLock allocates the lock on m.
func NewPeerRoundLock(m *memsim.Machine) *PeerRoundLock {
	return &PeerRoundLock{n: m.NumProcs()}
}

// Acquire implements the entry section.
func (l *PeerRoundLock) Acquire(p *memsim.Proc) {
	next := p.Machine().NewKeyedVarIn(nil, "peer.cell", Word((p.ID()+1)%l.n), 0)
	p.AwaitTrue(next) // want "PeerRoundLock: non-local spin on next"
}

// Release implements the exit section.
func (l *PeerRoundLock) Release(p *memsim.Proc) {}
