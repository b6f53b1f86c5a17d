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
// Each simulated process runs on a coroutine of its own for the run
// (an iter.Pull coroutine, a carrier), and exactly one process runs at
// a time. Every Read, Write, RMW and Await re-check is a scheduling
// point: the process that reaches one runs the engine step itself,
// asking the Scheduler for the next process, and either continues (it
// picked itself) or yields to the machine's run loop, which resumes the
// chosen process. So a Scheduler fully determines the interleaving;
// runs are reproducible and can be explored systematically (see
// Explorer). A switch between processes is two coroutine switches and
// never enters the Go scheduler, so the run loop yields to it once per
// run instead. Carriers are reused from run to run: carrier i of a set
// (Carriers) runs process i of every machine started on it. Each
// explorer worker owns one set for a whole wave, and each sweep worker
// one for all its cells, so their runs reuse N coroutines and their
// grown stacks; a machine run on its own gets a one-shot set, retired
// when Run returns.
// Busy-waiting is expressed as condition waits over explicit watch
// sets, which lets the engine (a) suspend spinners instead of burning
// steps and (b) charge exactly one RMR per re-check that misses — the
// same accounting the paper's analyses use for spin loops.
package memsim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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

// Index returns v's place among its machine's variables, counting from
// 1 in allocation order (0 for the zero Var). Handles are dense, so a
// table indexed by Index needs no hashing.
func (v Var) Index() int { return int(v.idx) }

// watchEntry subscribes one process's current await (identified by its
// epoch) to writes on a variable. Entries from completed awaits are
// ignored when the variable is written.
type watchEntry struct {
	p     *Proc
	epoch uint64
}

// variable is the engine-side state of one shared variable. It must
// not grow past 112 bytes (TestVariableLayout): varChunk is sized by
// it, and machines that are never released pay for every byte.
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

// label returns the variable's allocation name, built the first time
// it is asked for.
func (vv *variable) label() string {
	if vv.prefix != nil || vv.indexed {
		var front string
		if vv.prefix != nil {
			front = vv.prefix.String()
		}
		vv.name = joinName(front, vv.name, vv.indexed, '[', vv.key, ']')
		vv.prefix, vv.indexed = nil, false
	}
	return vv.name
}

// joinName returns front followed by name and, when keyed, by key in
// decimal between open and close, built in one exactly sized buffer.
func joinName(front, name string, keyed bool, open byte, key Word, close byte) string {
	var digits [20]byte
	num := digits[:0]
	size := len(front) + len(name)
	if keyed {
		num = strconv.AppendInt(num, int64(key), 10)
		size += len(num) + 2
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(front)
	b.WriteString(name)
	if keyed {
		b.WriteByte(open)
		b.Write(num)
		b.WriteByte(close)
	}
	return b.String()
}

// Prefix is the name a compound object's variables share as the front
// of their labels: its owner's prefix, if any, then a name, then
// "{key}" for the member of a keyed family (one two-process mutex per
// site, say), joined and formatted the first time a label needs it. A
// Prefix is embedded in its owner and passed by pointer to the *In
// constructors and to the prefixes of the objects the owner is made of.
type Prefix struct {
	parent *Prefix // owner's prefix, nil once String has folded it in
	name   string
	key    Word
	keyed  bool // name still lacks its "{key}" suffix
}

// NamePrefix returns the prefix parent (when not nil) followed by name.
func NamePrefix(parent *Prefix, name string) Prefix { return Prefix{parent: parent, name: name} }

// KeyedPrefix returns the prefix parent (when not nil) followed by
// "family{key}", unformatted until first asked for.
func KeyedPrefix(parent *Prefix, family string, key Word) Prefix {
	return Prefix{parent: parent, name: family, key: key, keyed: true}
}

// String returns the prefix, building and memoizing it on first use.
func (p *Prefix) String() string {
	if p.parent != nil || p.keyed {
		var front string
		if p.parent != nil {
			front = p.parent.String()
		}
		p.name = joinName(front, p.name, p.keyed, '{', p.key, '}')
		p.parent, p.keyed = nil, false
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

// varChunk is one block of a machine's variable storage. A machine
// keeps its chunks when it is released, zeroed, for the next machine
// built from it.
type varChunk [chunkVars]variable

// freeMachines holds released machines, each with the storage it grew:
// variable chunks (zeroed but for the emptied watch lists, and the
// sharer words of large machines, which newVar relies on), slab blocks
// (all zero, which Slab relies on), Procs, and the run's scheduling
// slices. NewMachine takes one before it allocates. Taking or
// releasing a machine is one lock operation however much storage
// travels with it.
//
// It is a locked list rather than a sync.Pool: a pool drops its
// contents at garbage collections and keeps some per thread, so how
// much a run allocated would depend on when the collector ran and
// where a worker was scheduled, and passes of one sweep would allocate
// different amounts. Its bound is the machines alive at once: a machine
// is allocated only when the list is empty, so the list never holds
// more machines than were alive together, and each keeps at most the
// storage its largest run needed.
var freeMachines struct {
	sync.Mutex
	list []*Machine
}

// takeMachine returns a released machine if there is any, else a new
// one. Every field of a released machine is zero apart from the
// storage Release keeps, so both kinds build alike.
func takeMachine() *Machine {
	freeMachines.Lock()
	defer freeMachines.Unlock()
	n := len(freeMachines.list)
	if n == 0 {
		return &Machine{chunks: make([]*varChunk, 0, 8)} // 128 variables before it grows
	}
	m := freeMachines.list[n-1]
	freeMachines.list[n-1] = nil
	freeMachines.list = freeMachines.list[:n-1]
	m.released = false
	return m
}

// grow extends s by one element, reusing the block a released machine
// left past its length (see Release) or allocating a new one.
func grow[T any](s []*T) []*T {
	if n := len(s); n < cap(s) && s[:n+1][n] != nil {
		return s[:n+1]
	}
	return append(s, new(T))
}

// Machine is one simulated multiprocessor instance. A Machine is built
// (variables allocated, processes added), run exactly once, and then
// inspected. It is not safe for concurrent use by multiple host
// goroutines; the engine coordinates its own process coroutines.
type Machine struct {
	model Model
	nproc int

	// chunks holds the variables: Var{i} is slot (i-1)%chunkVars of
	// chunk (i-1)/chunkVars, and nvars of them are allocated. Past
	// their lengths, chunks and procs keep the zeroed blocks and Procs
	// of the machine's earlier runs for grow to reuse. slabs holds the
	// storage of each Slab, indexed by its id: Dicts, Var arrays, run
	// statistics and the algorithm objects built on the machine.
	chunks []*varChunk
	nvars  int32
	procs  []*Proc
	slabs  []resetter

	released bool // on the free list; a second Release panics

	steps      int64
	csOccupant int // process id in critical section, or -1
	csEntries  int64

	// Engine state of the run in progress, touched only by the running
	// process or the run loop (see schedule).
	cfg  RunConfig
	last int // previously scheduled process, -1 at the first step
	// next is the process the last engine step picked, which the run
	// loop resumes; nil when the run is over.
	next *Proc
	// ready holds the processes with status Ready or Recheck (the
	// running one included). Only yield, wakeWatchers and the end of a
	// process body change it, and each sets readyDirty; runnable is
	// ready in ascending order, rebuilt by schedule only when dirty.
	ready      bitset
	runnable   []int
	readyDirty bool
	timedOut   bool
	killed     bool // torn down: a resumed process unwinds
	schedPanic any  // a Scheduler or Observer panic, re-raised by Run

	violation  error
	trace      *traceRing  // nil unless EnableTrace was called
	sinks      []EventSink // observers of every shared-memory operation
	phaseSinks []PhaseSink // the subset of sinks observing phase transitions
	endSinks   []EndSink   // the subset of sinks told when the run ends

	abortPoints []AbortPoint // adversary abort schedule (see abort.go)
}

// NewMachine returns a machine with the given memory model, sized for
// nproc processes (process ids 0..nproc-1 are valid variable homes).
// It may be built from a released machine's storage (see Release);
// that is invisible to the caller.
func NewMachine(model Model, nproc int) *Machine {
	if nproc <= 0 {
		panic(fmt.Sprintf("memsim: nproc must be positive, got %d", nproc))
	}
	m := takeMachine()
	m.model, m.nproc, m.csOccupant = model, nproc, -1
	return m
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
	return m.newVar(nil, name, 0, false, home, init)
}

// NewVarIn is NewVar for a variable of a compound object: its name is
// prefix followed by name, joined only when first asked for.
func (m *Machine) NewVarIn(prefix *Prefix, name string, home int, init Word) Var {
	return m.newVar(prefix, name, 0, false, home, init)
}

// newIndexedVar allocates the family member name[key] (after prefix, if
// not nil); its name is formatted only when first asked for (see
// variable.label).
func (m *Machine) newIndexedVar(prefix *Prefix, name string, key Word, home int, init Word) Var {
	return m.newVar(prefix, name, key, true, home, init)
}

// newVar fills the next free slot with a variable of the given name
// parts (see variable), home and initial value, taking the next chunk
// when the last one is full. It writes the fields in place: every slot
// past nvars is zero (see freeMachines) but for the emptied watch list
// and sharer words Release keeps, which registerWatch and resize reuse.
func (m *Machine) newVar(prefix *Prefix, name string, key Word, indexed bool, home int, init Word) Var {
	if home != HomeGlobal && (home < 0 || home >= m.nproc) {
		vv := variable{name: name, key: key, prefix: prefix, indexed: indexed}
		panic(fmt.Sprintf("memsim: variable %q: invalid home %d", vv.label(), home))
	}
	i := m.nvars
	if i&(chunkVars-1) == 0 {
		m.chunks = grow(m.chunks)
	}
	vv := &m.chunks[i>>chunkShift][i&(chunkVars-1)]
	vv.name, vv.key, vv.prefix, vv.indexed = name, key, prefix, indexed
	vv.home = int32(home)
	vv.value = init
	if m.model != DSM { // DSM locality is static: no cached copies
		vv.sharers.resize(m.nproc)
	}
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

// Release resets the machine and hands it back, with its zeroed
// storage, for a later NewMachine to build from. The rule is the
// owner's: whoever built and ran the machine calls Release once, after
// the last read of its results (metrics, hotspots, variable values,
// checks), and only if no one else holds the machine. The explorer
// releases every machine it explores; the harness runners release the
// machines they create. The machine must not be used afterwards, nor
// anything carved from its storage: the algorithm objects built on it,
// its Dicts and Var arrays, and the Procs slice of its Result. Any Var
// of it panics as an invalid handle until the machine is built again
// for its next owner, and a second Release panics. Strings read from
// it, such as labels, stay valid.
func (m *Machine) Release() {
	if m.released {
		panic("memsim: machine released twice")
	}
	for c, chunk := range m.chunks {
		// Keep each variable's emptied watch list, and the sharer words
		// past the inline ones that a CC variable of a machine of over
		// 64 processes has, for the slot's next variable to reuse.
		vars := chunk[:m.chunkLen(c)]
		for i := range vars {
			w, hi := vars[i].watchers[:0], vars[i].sharers.hi[:0]
			vars[i] = variable{}
			vars[i].watchers, vars[i].sharers.hi = w, hi
		}
	}
	for _, st := range m.slabs {
		if st != nil {
			st.reset()
		}
	}
	for _, p := range m.procs {
		// spinRead and read close over p and read p.m when called, and
		// p stays with this machine, so they serve every later run.
		*p = Proc{spinRead: p.spinRead, read: p.read, watch: p.watch[:0], abortPoints: p.abortPoints[:0]}
	}
	*m = Machine{
		chunks:      m.chunks[:0],
		slabs:       m.slabs,
		procs:       m.procs[:0],
		ready:       m.ready, // runOn resizes and clears it
		runnable:    m.runnable[:0],
		abortPoints: m.abortPoints[:0],
		released:    true,
	}
	freeMachines.Lock()
	freeMachines.list = append(freeMachines.list, m)
	freeMachines.Unlock()
}

// varArrays is the storage of NewArray and NewPerProcArray slices.
var varArrays = NewSlab[Var]()

// NewArray allocates n variables name[0..n-1], all with the same home.
func (m *Machine) NewArray(name string, n, home int, init Word) []Var {
	return m.NewArrayIn(nil, name, n, home, init)
}

// NewArrayIn is NewArray for an array of a compound object: its
// members are named prefix followed by name[i], joined only when first
// asked for. The slice is machine storage, like the variables.
func (m *Machine) NewArrayIn(prefix *Prefix, name string, n, home int, init Word) []Var {
	vs := varArrays.Make(m, n)
	for i := range vs {
		vs[i] = m.newIndexedVar(prefix, name, Word(i), home, init)
	}
	return vs
}

// NewPerProcArray allocates one variable per process, variable i homed
// at process i — the layout used for dedicated spin variables on DSM
// machines.
func (m *Machine) NewPerProcArray(name string, init Word) []Var {
	vs := varArrays.Make(m, m.nproc)
	for i := range vs {
		vs[i] = m.newIndexedVar(nil, name, Word(i), i, init)
	}
	return vs
}

// NumVars returns the number of variables allocated so far: the shared
// memory the algorithm built, and what it allocated on first touch.
func (m *Machine) NumVars() int { return int(m.nvars) }

// Label returns v's allocation name: the name it was allocated under,
// after its owner's prefix and with its family key, if any. It
// performs no RMR accounting. The string stays valid after Release.
func (m *Machine) Label(v Var) string { return m.varAt(v).label() }

// Value returns the current value of v. It is intended for inspection
// after a run (or from test code between runs); it performs no RMR
// accounting.
func (m *Machine) Value(v Var) Word { return m.varAt(v).value }

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
		m.record(p, kind, v, vv.value, vv.value, p.stats.RMRs > rmrsBefore)
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
		m.record(p, TraceWrite, v, old, x, p.stats.RMRs > rmrsBefore)
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
		m.record(p, TraceRMW, v, old, vv.value, p.stats.RMRs > rmrsBefore)
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
