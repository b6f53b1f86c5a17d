// Package memsim simulates a shared-memory multiprocessor at the
// granularity the RMR (remote-memory-references) time measure is
// defined over: one atomic shared-memory operation per scheduling step.
//
// The simulator supports the two architecture classes of the paper:
//
//   - CC (cache-coherent): variable locality is dynamic. A read hits
//     for free if the process holds a valid cached copy, otherwise it
//     costs one RMR and installs a copy. A write (or atomic
//     read-modify-write) is free only if the writer is the sole holder
//     of the line; otherwise it costs one RMR and invalidates all other
//     copies (write-invalidate protocol).
//
//   - DSM (distributed shared memory, no coherent caches): variable
//     locality is static. Each variable lives in exactly one process's
//     memory module (or in no process's, for HomeGlobal); an access is
//     free iff the accessor is the variable's home process.
//
// Each simulated process runs on its own goroutine, and exactly one of
// them holds the baton at a time. Every Read, Write, RMW and Await
// re-check is a scheduling point: the process that reaches one runs the
// engine step itself, asking the Scheduler for the next process, and
// either continues (it picked itself) or resumes the chosen process and
// parks. So a Scheduler fully determines the interleaving; runs are
// reproducible and can be explored systematically (see Explorer).
// Busy-waiting is expressed as condition waits over explicit watch
// sets, which lets the engine (a) suspend spinners instead of burning
// steps and (b) charge exactly one RMR per re-check that misses — the
// same accounting the paper's analyses use for spin loops.
package memsim

import (
	"fmt"
	"sort"
	"sync"

	"fetchphi/internal/phi"
)

// Word is the machine word; re-exported from phi so algorithm code only
// needs one import for values.
type Word = phi.Word

// Model selects the memory architecture being simulated.
type Model int

// The architecture classes: the paper's two (write-invalidate CC and
// DSM), plus a write-update CC variant for model-sensitivity
// ablations.
const (
	// CC is a cache-coherent machine with a write-invalidate
	// protocol: a write purges all other cached copies, so every
	// spinning reader pays one RMR per update of its spin variable.
	// This is the model the paper's CC analyses assume.
	CC Model = iota
	// DSM is a distributed shared-memory machine without coherent
	// caches.
	DSM
	// CCUpdate is a cache-coherent machine with a write-update
	// protocol: a write refreshes other cached copies in place, so a
	// reader misses at most once per variable and spin re-checks are
	// free; the writer pays one RMR whenever anyone else holds a
	// copy. Asymptotic RMR classes are generally unchanged, but
	// constants shift from readers to writers (ablation E8e).
	CCUpdate
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case CC:
		return "CC"
	case DSM:
		return "DSM"
	case CCUpdate:
		return "CC-update"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel inverts Model.String: it is the decode half of every
// place a model crosses a serialization boundary (explore artifacts,
// checkpoints, the fleet wire protocol).
func ParseModel(s string) (Model, error) {
	for _, m := range []Model{CC, DSM, CCUpdate} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("memsim: unknown memory model %q", s)
}

// HomeGlobal marks a variable that is remote to every process on a DSM
// machine (e.g. a centralized lock word).
const HomeGlobal = -1

// Var is a handle to a simulated shared variable. The zero Var is
// invalid.
type Var struct{ idx int32 }

// IsZero reports whether v is the invalid zero handle.
func (v Var) IsZero() bool { return v.idx == 0 }

// watchEntry subscribes one process's current await (identified by its
// epoch) to writes on a variable. Entries from completed awaits are
// ignored when the variable is written.
type watchEntry struct {
	p     *Proc
	epoch uint64
}

// variable is the engine-side state of one shared variable. It must
// not grow past 112 bytes (TestVariableLayout): varChunk is sized by
// it, and machines that never recycle their storage pay for every byte.
type variable struct {
	// name is the allocation name. Its formatting is deferred until
	// something asks for the label: a member of an array or Dict
	// family holds the family name here and its key in key, and a
	// variable of a compound object (a twoproc mutex, a localspin site)
	// holds only its own part, after the owner's prefix. label builds
	// and memoizes the full name, so runs that never look at names
	// never format them.
	name     string
	key      Word
	prefix   *Prefix // owner's name, nil once label has folded it in
	home     int32   // process id, or HomeGlobal
	indexed  bool    // name still lacks its "[key]" suffix
	value    Word
	sharers  bitset // CC: processes holding a valid cached copy
	watchers []watchEntry
	rmrs     int64 // remote references charged against this variable
}

// label returns the variable's allocation name.
func (vv *variable) label() string {
	if vv.prefix != nil {
		vv.name = vv.prefix.String() + vv.name
		vv.prefix = nil
	}
	if vv.indexed {
		vv.name = fmt.Sprintf("%s[%d]", vv.name, vv.key)
		vv.indexed = false
	}
	return vv.name
}

// Prefix is the name a compound object's variables share as the front
// of their labels: "family{key}" for the member of a keyed family (one
// two-process mutex per site, say), formatted the first time a label
// needs it. A Prefix is embedded in its owner and passed by pointer to
// NewVarIn and NewDictHomedIn.
type Prefix struct {
	name  string
	key   Word
	keyed bool // name still lacks its "{key}" suffix
}

// NamePrefix returns the prefix name, used verbatim.
func NamePrefix(name string) Prefix { return Prefix{name: name} }

// KeyedPrefix returns the prefix "family{key}", unformatted until first
// asked for.
func KeyedPrefix(family string, key Word) Prefix {
	return Prefix{name: family, key: key, keyed: true}
}

// String returns the prefix, formatting and memoizing it on first use.
func (p *Prefix) String() string {
	if p.keyed {
		p.name = fmt.Sprintf("%s{%d}", p.name, p.key)
		p.keyed = false
	}
	return p.name
}

// chunkVars is the number of variables in one storage chunk: 16 of
// 112 bytes each make 1792 bytes, a malloc size class, so a chunk
// rounds up to nothing. Larger classes that 112 divides (14336 bytes
// for 128) cost the many small machines of a sweep more than they save.
const (
	chunkShift = 4
	chunkVars  = 1 << chunkShift
)

// varChunk is one block of a machine's variable storage. Chunks come
// from chunkPool; the explorer hands them back zeroed once it is done
// with a machine (see recycle).
type varChunk [chunkVars]variable

var chunkPool = sync.Pool{New: func() any { return new(varChunk) }}

// Machine is one simulated multiprocessor instance. A Machine is built
// (variables allocated, processes added), run exactly once, and then
// inspected. It is not safe for concurrent use by multiple host
// goroutines; the engine coordinates its own process goroutines.
type Machine struct {
	model Model
	nproc int

	// chunks holds the variables: Var{i} is slot (i-1)%chunkVars of
	// chunk (i-1)/chunkVars, and nvars of them are allocated.
	chunks []*varChunk
	nvars  int32
	procs  []*Proc

	steps      int64
	csOccupant int // process id in critical section, or -1
	csEntries  int64

	// Engine state of the run in progress, touched only by the
	// goroutine holding the baton (see schedule).
	cfg  RunConfig
	last int // previously scheduled process, -1 at the first step
	// ready holds the processes with status Ready or Recheck (the
	// running one included). Only yield, wakeWatchers and the end of a
	// process body change it, and each sets readyDirty; runnable is
	// ready in ascending order, rebuilt by schedule only when dirty.
	ready      bitset
	runnable   []int
	over       chan struct{} // run over, or a teardown kill acknowledged
	readyDirty bool
	timedOut   bool
	schedPanic any // a Scheduler or Observer panic, re-raised by Run

	violation  error
	trace      *traceRing  // nil unless EnableTrace was called
	sinks      []EventSink // observers of every shared-memory operation
	phaseSinks []PhaseSink // the subset of sinks observing phase transitions

	abortPoints []AbortPoint // adversary abort schedule (see abort.go)
}

// NewMachine returns a machine with the given memory model, sized for
// nproc processes (process ids 0..nproc-1 are valid variable homes).
func NewMachine(model Model, nproc int) *Machine {
	if nproc <= 0 {
		panic(fmt.Sprintf("memsim: nproc must be positive, got %d", nproc))
	}
	return &Machine{
		model:      model,
		nproc:      nproc,
		chunks:     make([]*varChunk, 0, 8), // 128 variables before it grows
		csOccupant: -1,
	}
}

// Model returns the machine's memory model.
func (m *Machine) Model() Model { return m.model }

// NumProcs returns the number of processes the machine was sized for.
func (m *Machine) NumProcs() int { return m.nproc }

// NewVar allocates a shared variable initialized to init. On a DSM
// machine the variable is placed in process home's memory module; pass
// HomeGlobal for a variable remote to everyone. The home is ignored on
// CC machines (locality there is dynamic).
func (m *Machine) NewVar(name string, home int, init Word) Var {
	return m.newVar(variable{name: name}, home, init)
}

// NewVarIn is NewVar for a variable of a compound object: its name is
// prefix followed by name, joined only when first asked for.
func (m *Machine) NewVarIn(prefix *Prefix, name string, home int, init Word) Var {
	return m.newVar(variable{name: name, prefix: prefix}, home, init)
}

// newIndexedVar allocates the family member name[key] (after prefix, if
// not nil); its name is formatted only when first asked for (see
// variable.label).
func (m *Machine) newIndexedVar(prefix *Prefix, name string, key Word, home int, init Word) Var {
	return m.newVar(variable{name: name, key: key, prefix: prefix, indexed: true}, home, init)
}

// newVar stores vv, with its home and initial value, in the next free
// slot, taking a chunk from chunkPool when the last one is full.
func (m *Machine) newVar(vv variable, home int, init Word) Var {
	if home != HomeGlobal && (home < 0 || home >= m.nproc) {
		panic(fmt.Sprintf("memsim: variable %q: invalid home %d", vv.label(), home))
	}
	vv.home = int32(home)
	vv.value = init
	if m.model != DSM { // DSM locality is static: no cached copies
		vv.sharers = newBitset(m.nproc)
	}
	i := m.nvars
	if i&(chunkVars-1) == 0 {
		m.chunks = append(m.chunks, chunkPool.Get().(*varChunk))
	}
	m.chunks[i>>chunkShift][i&(chunkVars-1)] = vv
	m.nvars++
	return Var{idx: m.nvars}
}

// eachVar calls f on every variable, in allocation order.
func (m *Machine) eachVar(f func(vv *variable)) {
	for c, chunk := range m.chunks {
		for i := range m.chunkLen(c) {
			f(&chunk[i])
		}
	}
}

// chunkLen returns the number of allocated slots in chunk c.
func (m *Machine) chunkLen(c int) int {
	return min(int(m.nvars)-c*chunkVars, chunkVars)
}

// recycle zeroes the machine's variable storage and returns its chunks
// to chunkPool. The explorer calls it once a run, its checks and its
// error are done with; the machine must not be used afterwards, and any
// Var of it now panics as an invalid handle.
func (m *Machine) recycle() {
	for c, chunk := range m.chunks {
		clear(chunk[:m.chunkLen(c)])
		chunkPool.Put(chunk)
		m.chunks[c] = nil
	}
	m.chunks = m.chunks[:0]
	m.nvars = 0
}

// NewArray allocates n variables name[0..n-1], all with the same home.
func (m *Machine) NewArray(name string, n, home int, init Word) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = m.newIndexedVar(nil, name, Word(i), home, init)
	}
	return vs
}

// NewPerProcArray allocates one variable per process, variable i homed
// at process i — the layout used for dedicated spin variables on DSM
// machines.
func (m *Machine) NewPerProcArray(name string, init Word) []Var {
	vs := make([]Var, m.nproc)
	for i := range vs {
		vs[i] = m.newIndexedVar(nil, name, Word(i), i, init)
	}
	return vs
}

// Value returns the current value of v. It is intended for inspection
// after a run (or from test code between runs); it performs no RMR
// accounting.
func (m *Machine) Value(v Var) Word { return m.varAt(v).value }

// StepsSoFar returns the number of scheduling points executed so far
// (instrumentation; no simulated cost).
func (m *Machine) StepsSoFar() int64 { return m.steps }

// CSEntriesSoFar returns the number of critical-section entries
// recorded so far. Process bodies may call it between operations (it is
// instrumentation, not a simulated memory access) to compute fairness
// metrics such as bypass counts.
func (m *Machine) CSEntriesSoFar() int64 { return m.csEntries }

func (m *Machine) varAt(v Var) *variable {
	i := v.idx - 1
	if i < 0 || i >= m.nvars {
		panic("memsim: invalid Var handle")
	}
	return &m.chunks[i>>chunkShift][i&(chunkVars-1)]
}

// chargeRMR charges one remote memory reference by p against vv, with
// per-phase attribution.
func (m *Machine) chargeRMR(p *Proc, vv *variable) {
	p.stats.RMRs++
	p.stats.PhaseRMRs[p.phase]++
	vv.rmrs++
}

// doRead performs the memory-system side of a read by p and returns
// the value, charging RMRs per the model.
func (m *Machine) doRead(p *Proc, v Var, spinning bool) Word {
	vv := m.varAt(v)
	// Snapshot the RMR counter only when sinks are attached, so the
	// recorded event can say whether this operation was charged; with
	// no sinks the hot path stays exactly as before.
	rmrsBefore := int64(-1)
	if len(m.sinks) > 0 {
		rmrsBefore = p.stats.RMRs
	}
	switch m.model {
	case DSM:
		if int(vv.home) != p.id {
			m.chargeRMR(p, vv)
			if spinning {
				p.stats.NonLocalSpinReads++
			}
		}
	case CC, CCUpdate:
		if !vv.sharers.has(p.id) {
			m.chargeRMR(p, vv)
			vv.sharers.add(p.id)
		}
	}
	if rmrsBefore >= 0 {
		kind := TraceRead
		if spinning {
			kind = TraceSpinRead
		}
		m.record(p, kind, vv, vv.value, vv.value, p.stats.RMRs > rmrsBefore)
	}
	return vv.value
}

// doWrite performs a write by p, charging RMRs and waking any waiters
// watching v.
func (m *Machine) doWrite(p *Proc, v Var, x Word) {
	vv := m.varAt(v)
	rmrsBefore := int64(-1)
	if len(m.sinks) > 0 {
		rmrsBefore = p.stats.RMRs
	}
	m.chargeWrite(p, vv)
	old := vv.value
	vv.value = x
	if rmrsBefore >= 0 {
		m.record(p, TraceWrite, vv, old, x, p.stats.RMRs > rmrsBefore)
	}
	m.wakeWatchers(vv)
}

// doRMW atomically applies f to v on behalf of p and returns the old
// value. Its RMR cost is that of a write.
func (m *Machine) doRMW(p *Proc, v Var, f func(Word) Word) Word {
	vv := m.varAt(v)
	rmrsBefore := int64(-1)
	if len(m.sinks) > 0 {
		rmrsBefore = p.stats.RMRs
	}
	m.chargeWrite(p, vv)
	old := vv.value
	vv.value = f(old)
	if rmrsBefore >= 0 {
		m.record(p, TraceRMW, vv, old, vv.value, p.stats.RMRs > rmrsBefore)
	}
	m.wakeWatchers(vv)
	return old
}

func (m *Machine) chargeWrite(p *Proc, vv *variable) {
	switch m.model {
	case DSM:
		if int(vv.home) != p.id {
			m.chargeRMR(p, vv)
		}
	case CC:
		if !vv.sharers.hasOnly(p.id) {
			m.chargeRMR(p, vv)
			vv.sharers.clear()
			vv.sharers.add(p.id)
		}
	case CCUpdate:
		// The write refreshes every other copy in place; it is remote
		// iff someone else holds one.
		others := vv.sharers.len()
		if vv.sharers.has(p.id) {
			others--
		}
		if others > 0 {
			m.chargeRMR(p, vv)
		} else if !vv.sharers.has(p.id) {
			m.chargeRMR(p, vv) // cold miss
		}
		vv.sharers.add(p.id)
	}
}

// wakeWatchers flags every process with a live await on vv for a
// re-check.
func (m *Machine) wakeWatchers(vv *variable) {
	if len(vv.watchers) == 0 {
		return
	}
	for _, w := range vv.watchers {
		if w.p.status == statusWaiting && w.p.watchEpoch == w.epoch {
			w.p.status = statusRecheck
			m.ready.add(w.p.id)
			m.readyDirty = true
		}
	}
	vv.watchers = vv.watchers[:0]
}

// registerWatch subscribes p's current await to writes on each watched
// variable.
func (m *Machine) registerWatch(p *Proc) {
	for _, v := range p.watch {
		vv := m.varAt(v)
		vv.watchers = append(vv.watchers, watchEntry{p: p, epoch: p.watchEpoch})
	}
}

// VarRMR is one row of the hot-variable report.
type VarRMR struct {
	// Name is the variable's allocation name.
	Name string
	// RMRs is the number of remote references it attracted.
	RMRs int64
}

// HotVars returns the k variables that attracted the most remote
// memory references, descending — contention attribution for analyzing
// where an algorithm's RMRs actually go. Call after the run.
func (m *Machine) HotVars(k int) []VarRMR {
	// Only variables at or above the k-th largest count can make the
	// cut, so only those get a row and a formatted label.
	cut, rows := m.hotCut(k)
	out := make([]VarRMR, 0, rows)
	m.eachVar(func(vv *variable) {
		if vv.rmrs >= cut {
			out = append(out, VarRMR{Name: vv.label(), RMRs: vv.rmrs})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].RMRs != out[j].RMRs {
			return out[i].RMRs > out[j].RMRs
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// hotCut returns the smallest RMR count a HotVars(k) row can have: the
// k-th largest positive count, or 1 when k <= 0 or fewer than k
// variables attracted RMRs. rows is a capacity hint for the result.
func (m *Machine) hotCut(k int) (cut int64, rows int) {
	if k <= 0 {
		return 1, 0
	}
	top := make([]int64, 0, k) // the k largest counts so far, descending
	m.eachVar(func(vv *variable) {
		r := vv.rmrs
		if r <= 0 || len(top) == k && r <= top[k-1] {
			return
		}
		i := sort.Search(len(top), func(i int) bool { return top[i] < r })
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[i+1:], top[i:])
		top[i] = r
	})
	if len(top) < k {
		return 1, len(top)
	}
	return top[k-1], k
}

// fail records the first violation; later ones are dropped.
func (m *Machine) fail(err error) {
	if m.violation == nil {
		m.violation = err
	}
}
