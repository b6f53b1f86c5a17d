package localspin

import "fetchphi/internal/memsim"

// ArmLock chooses its exit arm by a per-process struct field that its
// entry section sets: a process that found the word taken records it,
// and its exit spins on that globally-homed word. Acquire's final
// store of 0 to one element must not stand for every element, or the
// spinning arm of Release folds away unseen.
type ArmLock struct {
	word  memsim.Var
	flags []memsim.Var
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
		flags: m.NewPerProcArray("arm.flag", 0),
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
		p.AwaitTrue(l.flags[me])
		return
	}
	l.st[me].waited = 0
}

// Release implements the exit section.
func (l *ArmLock) Release(p *memsim.Proc) {
	st := &l.st[p.ID()]
	if st.waited != 0 {
		p.AwaitEq(l.word, 0) // want "ArmLock: non-local spin on l.word"
	}
	p.Write(l.word, 0)
}
