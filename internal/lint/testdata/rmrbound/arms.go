package rmrbound

import "fetchphi/internal/memsim"

// ArmLock claims O(1) RMR, but the exit arm its entry section chooses
// through a per-process struct field loops to a bound read from shared
// memory. Acquire's final store of 0 to one element must not stand for
// every element, or that arm of Release is never counted.
//
//fetchphilint:rmr O(1) corpus: an exit arm chosen by per-process state still counts
type ArmLock struct {
	word  memsim.Var
	bound memsim.Var
	st    []armState
}

// armState is a process's private state.
type armState struct {
	waited int
}

// NewArmLock allocates the lock on m.
func NewArmLock(m *memsim.Machine) *ArmLock {
	n := m.NumProcs()
	l := &ArmLock{
		word:  m.NewVar("arm.word", memsim.HomeGlobal, 0),
		bound: m.NewVar("arm.bound", memsim.HomeGlobal, 0),
		st:    make([]armState, n),
	}
	for p := 0; p < n; p++ {
		l.st[p] = armState{}
	}
	return l
}

// Acquire implements the entry section.
func (l *ArmLock) Acquire(p *memsim.Proc) {
	me := p.ID()
	if p.Read(l.word) != 0 {
		l.st[me].waited = 1
		return
	}
	l.st[me].waited = 0
}

// Release implements the exit section.
func (l *ArmLock) Release(p *memsim.Proc) {
	if l.st[p.ID()].waited != 0 {
		for i := 0; i < int(p.Read(l.bound)); i++ { // want `ArmLock, which declares`
			p.Write(l.word, Word(i))
		}
	}
	p.Write(l.word, 0)
}
