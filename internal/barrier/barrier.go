// Package barrier implements the Wait/Signal "barrier" of Algorithms
// T0 and T (paper, Sec. 4): a token that serializes exit sections. At
// most one process executes between Wait and Signal at any time.
//
// Wait is always invoked while its caller holds the algorithm's
// critical section, so at most one process waits at a time. On CC
// machines the paper's implementation is simply
//
//	Wait:   await Flag; Flag := false
//	Signal: Flag := true
//
// with Flag initially true. On DSM machines that await spins on a
// shared flag, so the Sec. 3 transformation is applied; the paper
// omits this "slightly more complicated implementation" for space.
// Both are the one localspin.Waits value, in the form the machine's
// memory model needs (localspin.ForModel).
package barrier

import (
	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
)

// Barrier is the exit-section token.
type Barrier struct {
	flag  memsim.Var
	waits localspin.Waits // one site, key 0
}

// New allocates an open barrier on m.
func New(m *memsim.Machine, name string) *Barrier {
	b := &Barrier{
		flag:  m.NewVar(name+".Flag", memsim.HomeGlobal, 1),
		waits: localspin.ForModel(m, memsim.NamePrefix(nil, name+".site")),
	}
	b.waits.Prepare(0)
	return b
}

// Wait blocks until the token is free and takes it.
func (b *Barrier) Wait(p *memsim.Proc) {
	b.waits.WaitTrue(p, 0, b.flag)
	p.Write(b.flag, 0)
}

// Signal releases the token.
func (b *Barrier) Signal(p *memsim.Proc) {
	b.waits.Signal(p, 0, func() { p.Write(b.flag, 1) })
}
