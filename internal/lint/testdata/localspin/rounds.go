package localspin

import "fetchphi/internal/memsim"

// RoundLock spins on a fresh cell per acquisition, made with Dict.New
// in a family that homes key k at k mod N, keyed round·N + p as the
// two-process mutex keys its cells: the key is ≡ p (mod N), so the
// cell is homed at the spinner.
type RoundLock struct {
	n      int
	cells  *memsim.Dict
	rounds []int
}

// NewRoundLock allocates the lock on m.
func NewRoundLock(m *memsim.Machine) *RoundLock {
	return &RoundLock{
		n:      m.NumProcs(),
		cells:  m.NewProcDictIn(nil, "round.cell", 0),
		rounds: make([]int, m.NumProcs()),
	}
}

// Acquire implements the entry section.
func (l *RoundLock) Acquire(p *memsim.Proc) {
	l.rounds[p.ID()]++
	mine := l.cells.New(Word(l.rounds[p.ID()])*Word(l.n) + Word(p.ID()))
	p.AwaitTrue(mine)
}

// Release implements the exit section.
func (l *RoundLock) Release(p *memsim.Proc) {}

// PeerRoundLock makes its cell in the same kind of family, but keyed
// by the next process, where the family homes it: a remote spin.
type PeerRoundLock struct {
	n     int
	cells *memsim.Dict
}

// NewPeerRoundLock allocates the lock on m.
func NewPeerRoundLock(m *memsim.Machine) *PeerRoundLock {
	return &PeerRoundLock{n: m.NumProcs(), cells: m.NewProcDictIn(nil, "peer.cell", 0)}
}

// Acquire implements the entry section.
func (l *PeerRoundLock) Acquire(p *memsim.Proc) {
	next := l.cells.New(Word((p.ID() + 1) % l.n))
	p.AwaitTrue(next) // want "PeerRoundLock: non-local spin on next"
}

// Release implements the exit section.
func (l *PeerRoundLock) Release(p *memsim.Proc) {}
