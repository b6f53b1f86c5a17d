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
// shared flag, so the Sec. 3 transformation (localspin.Site) is
// applied; the paper omits this "slightly more complicated
// implementation" for space, and this package supplies it.
package barrier

import (
	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
)

// Barrier is the exit-section token.
type Barrier struct {
	flag memsim.Var
	site *localspin.Site // nil on CC machines
}

// New allocates an open barrier on m, choosing the local-spin
// implementation automatically from the machine's memory model.
func New(m *memsim.Machine, name string) *Barrier {
	b := &Barrier{flag: m.NewVar(name+".Flag", memsim.HomeGlobal, 1)}
	if m.Model() == memsim.DSM {
		b.site = localspin.NewSiteSet(m, memsim.NamePrefix(nil, name+".site")).At(0)
	}
	return b
}

// Wait blocks until the token is free and takes it.
func (b *Barrier) Wait(p *memsim.Proc) {
	if b.site == nil {
		p.AwaitTrue(b.flag)
	} else {
		b.site.Wait(p, func(read func(memsim.Var) memsim.Word) bool {
			return read(b.flag) != 0
		})
	}
	p.Write(b.flag, 0)
}

// Signal releases the token.
func (b *Barrier) Signal(p *memsim.Proc) {
	if b.site == nil {
		p.Write(b.flag, 1)
		return
	}
	b.site.Signal(p, func() { p.Write(b.flag, 1) })
}
