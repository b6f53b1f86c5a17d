// Package rmrbound is the corpus for the rmrbound module analyzer:
// each `// want` comment marks an unbounded shared-op loop (or a
// malformed declaration) in an algorithm claiming O(1) RMR; the
// silent algorithms check that constant-trip loops, Await condition
// closures, and undeclared algorithms produce no diagnostics.
package rmrbound

import "fetchphi/internal/memsim"

// Word mirrors the algorithm packages' local alias.
type Word = memsim.Word

// BoundedLock declares O(1) and keeps it: a constant-trip loop
// multiplies its body cost instead of being flagged.
//
//fetchphilint:rmr O(1) corpus: constant-trip loops are bounded
type BoundedLock struct {
	word memsim.Var
}

// NewBoundedLock allocates the lock on m.
func NewBoundedLock(m *memsim.Machine) *BoundedLock {
	return &BoundedLock{word: m.NewVar("bounded.word", memsim.HomeGlobal, 0)}
}

// Acquire implements the entry section.
func (l *BoundedLock) Acquire(p *memsim.Proc) {
	for i := 0; i < 3; i++ {
		p.Write(l.word, Word(i))
	}
	p.AwaitTrue(l.word)
}

// Release implements the exit section.
func (l *BoundedLock) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// DynamicLoopLock loops to a bound read from shared memory.
//
//fetchphilint:rmr O(1) corpus: dynamic-trip loops must be flagged
type DynamicLoopLock struct {
	word  memsim.Var
	bound memsim.Var
}

// NewDynamicLoopLock allocates the lock on m.
func NewDynamicLoopLock(m *memsim.Machine) *DynamicLoopLock {
	return &DynamicLoopLock{
		word:  m.NewVar("dyn.word", memsim.HomeGlobal, 0),
		bound: m.NewVar("dyn.bound", memsim.HomeGlobal, 0),
	}
}

// Acquire implements the entry section.
func (l *DynamicLoopLock) Acquire(p *memsim.Proc) {
	n := int(p.Read(l.bound))
	for i := 0; i < n; i++ { // want "unbounded shared-op loop"
		p.Write(l.word, Word(i))
	}
}

// Release implements the exit section.
func (l *DynamicLoopLock) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// RangeLock ranges over its variables with a shared op in the body.
//
//fetchphilint:rmr O(1) corpus: range loops with shared ops must be flagged
type RangeLock struct {
	words []memsim.Var
}

// NewRangeLock allocates the lock on m.
func NewRangeLock(m *memsim.Machine) *RangeLock {
	return &RangeLock{words: m.NewPerProcArray("range.word", 0)}
}

// Acquire implements the entry section.
func (l *RangeLock) Acquire(p *memsim.Proc) {
	for _, v := range l.words { // want "unbounded shared-op loop"
		p.Write(v, 1)
	}
}

// Release implements the exit section.
func (l *RangeLock) Release(p *memsim.Proc) {
	p.Write(l.words[p.ID()], 0)
}

// RecursiveLock hides its shared-op loop in recursion; the cut is
// flagged at the recursive call site.
//
//fetchphilint:rmr O(1) corpus: recursion is an unbounded loop
type RecursiveLock struct {
	word memsim.Var
}

// NewRecursiveLock allocates the lock on m.
func NewRecursiveLock(m *memsim.Machine) *RecursiveLock {
	return &RecursiveLock{word: m.NewVar("rec.word", memsim.HomeGlobal, 0)}
}

// Acquire implements the entry section.
func (l *RecursiveLock) Acquire(p *memsim.Proc) {
	l.chase(p, 3)
}

func (l *RecursiveLock) chase(p *memsim.Proc, d int) {
	p.Write(l.word, Word(d))
	if d > 0 {
		l.chase(p, d-1) // want "unbounded shared-op loop"
	}
}

// Release implements the exit section.
func (l *RecursiveLock) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// UndeclaredLoop has the same dynamic loop but no O(1) declaration:
// its bound is recorded in the artifact, not enforced.
type UndeclaredLoop struct {
	word  memsim.Var
	bound memsim.Var
}

// NewUndeclaredLoop allocates the lock on m.
func NewUndeclaredLoop(m *memsim.Machine) *UndeclaredLoop {
	return &UndeclaredLoop{
		word:  m.NewVar("und.word", memsim.HomeGlobal, 0),
		bound: m.NewVar("und.bound", memsim.HomeGlobal, 0),
	}
}

// Acquire implements the entry section.
func (l *UndeclaredLoop) Acquire(p *memsim.Proc) {
	n := int(p.Read(l.bound))
	for i := 0; i < n; i++ {
		p.Write(l.word, Word(i))
	}
}

// Release implements the exit section.
func (l *UndeclaredLoop) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// AmortizedAbortable carries an unbounded relay loop but declares an
// amortized bound and is abortable, so the static check stands aside
// (the claims engine verifies the amortized figure dynamically).
//
//fetchphilint:rmr O(1) amortized corpus: aborts prepay the relay loop
type AmortizedAbortable struct {
	word  memsim.Var
	bound memsim.Var
}

// NewAmortizedAbortable allocates the lock on m.
func NewAmortizedAbortable(m *memsim.Machine) *AmortizedAbortable {
	return &AmortizedAbortable{
		word:  m.NewVar("amo.word", memsim.HomeGlobal, 0),
		bound: m.NewVar("amo.bound", memsim.HomeGlobal, 0),
	}
}

// Acquire implements the entry section.
func (l *AmortizedAbortable) Acquire(p *memsim.Proc) {
	l.AcquireAbortable(p)
}

// AcquireAbortable implements the abortable entry section.
func (l *AmortizedAbortable) AcquireAbortable(p *memsim.Proc) bool {
	n := int(p.Read(l.bound))
	for i := 0; i < n; i++ {
		p.Write(l.word, Word(i))
	}
	return true
}

// Release implements the exit section.
func (l *AmortizedAbortable) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// AmortizedPlain claims an amortized bound without an abortable entry
// section: nothing prepays its loops, so the declaration is rejected.
//
//fetchphilint:rmr O(1) amortized corpus: nothing amortizes a plain lock // want "no AcquireAbortable entry section"
type AmortizedPlain struct {
	word memsim.Var
}

// NewAmortizedPlain allocates the lock on m.
func NewAmortizedPlain(m *memsim.Machine) *AmortizedPlain {
	return &AmortizedPlain{word: m.NewVar("amp.word", memsim.HomeGlobal, 0)}
}

// Acquire implements the entry section.
func (l *AmortizedPlain) Acquire(p *memsim.Proc) {
	p.AwaitTrue(l.word)
}

// Release implements the exit section.
func (l *AmortizedPlain) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// MalformedDecl claims a bound the checker does not recognize.
//
//fetchphilint:rmr O(n) corpus: only O(1) is recognized // want "malformed rmr declaration"
type MalformedDecl struct {
	word memsim.Var
}

// NewMalformedDecl allocates the lock on m.
func NewMalformedDecl(m *memsim.Machine) *MalformedDecl {
	return &MalformedDecl{word: m.NewVar("mal.word", memsim.HomeGlobal, 0)}
}

// Acquire implements the entry section.
func (l *MalformedDecl) Acquire(p *memsim.Proc) {
	p.AwaitTrue(l.word)
}

// Release implements the exit section.
func (l *MalformedDecl) Release(p *memsim.Proc) {
	p.Write(l.word, 0)
}

// GuardedLock declares O(1) and keeps it: its loop runs only on an
// abort request, which never reaches a lock without AcquireAbortable,
// or once bound is set, which NewGuardedLock never does; so neither
// arm is walked. GuardedLockArmed, an algorithm through its promoted
// entry sections, sets bound, and its loop is flagged.
//
//fetchphilint:rmr O(1) corpus: arms dead under every construction are not walked
type GuardedLock struct {
	word  memsim.Var
	bound *memsim.Var
}

// NewGuardedLock allocates the lock on m, with no bound.
func NewGuardedLock(m *memsim.Machine) *GuardedLock {
	return &GuardedLock{word: m.NewVar("guard.word", memsim.HomeGlobal, 0)}
}

// Acquire implements the entry section.
func (l *GuardedLock) Acquire(p *memsim.Proc) {
	if p.AbortRequested() || l.bound != nil {
		for i := 0; i < int(p.Read(*l.bound)); i++ { // want `GuardedLockArmed, which declares`
			p.Write(l.word, Word(i))
		}
	}
}

// Release implements the exit section.
func (l *GuardedLock) Release(p *memsim.Proc) { p.Write(l.word, 0) }

// GuardedLockArmed is a GuardedLock with a bound.
//
//fetchphilint:rmr O(1) corpus: an embedding type is analyzed with its own construction
type GuardedLockArmed struct{ *GuardedLock }

// NewGuardedLockArmed allocates the lock on m, with a bound.
func NewGuardedLockArmed(m *memsim.Machine) *GuardedLockArmed {
	bound := m.NewVar("guard.bound", memsim.HomeGlobal, 0)
	return &GuardedLockArmed{&GuardedLock{word: m.NewVar("guard.word", memsim.HomeGlobal, 0), bound: &bound}}
}
