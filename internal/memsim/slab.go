package memsim

import "sync/atomic"

// Slab is a handle on one kind of a machine's recycled storage: the
// blocks of T that algorithm objects and the machine's own Dicts, Var
// arrays and statistics are carved from. Release zeroes the blocks and
// keeps them with the machine, so the next machine built from it hands
// out the same memory instead of allocating it again. A package makes
// one handle per type, as a package-level variable:
//
//	var mutexes = memsim.NewSlab[Mutex]()
//
// Storage taken from a Slab belongs to the machine: like its Vars and
// Dicts, it is invalid once the machine is released.
type Slab[T any] struct{ id int }

// slabs counts the handles made so far; a handle's id indexes
// Machine.slabs.
var slabs atomic.Int32

// NewSlab returns the handle for a new kind of storage.
func NewSlab[T any]() Slab[T] { return Slab[T]{id: int(slabs.Add(1)) - 1} }

// slabBlock is the fewest elements a block holds. Blocks are kept for
// the machine's next runs, so a small one only costs its first run an
// extra allocation; larger requests get a block of their own size.
const slabBlock = 16

// slabStore is one machine's storage for one Slab: blocks[:cur] are
// used up to their lengths, blocks[cur] is being filled, and the rest
// are empty blocks an earlier run grew.
type slabStore[T any] struct {
	blocks [][]T
	cur    int
}

// resetter is the type-free side of a slabStore, which Release calls.
type resetter interface{ reset() }

// reset zeroes every element handed out and empties the blocks.
func (st *slabStore[T]) reset() {
	for i := range st.blocks[:min(st.cur+1, len(st.blocks))] {
		clear(st.blocks[i])
		st.blocks[i] = st.blocks[i][:0]
	}
	st.cur = 0
}

// take returns n contiguous zero elements: from the block being filled
// if they fit, else from the next kept block, which is replaced if it
// is too small, else from a new block.
func (st *slabStore[T]) take(n int) []T {
	for ; st.cur < len(st.blocks); st.cur++ {
		b := st.blocks[st.cur]
		if len(b) == 0 && cap(b) < n {
			b = make([]T, 0, max(n, slabBlock))
		}
		if l := len(b); cap(b)-l >= n {
			st.blocks[st.cur] = b[:l+n]
			return b[l : l+n : l+n]
		}
	}
	st.blocks = append(st.blocks, make([]T, n, max(n, slabBlock)))
	return st.blocks[st.cur][:n:n]
}

// store returns m's storage for s, making it on first use.
func (s Slab[T]) store(m *Machine) *slabStore[T] {
	if s.id >= len(m.slabs) {
		m.slabs = append(m.slabs, make([]resetter, s.id+1-len(m.slabs))...)
	}
	st, ok := m.slabs[s.id].(*slabStore[T])
	if !ok {
		st = new(slabStore[T])
		m.slabs[s.id] = st
	}
	return st
}

// New returns a zero T from m's storage.
func (s Slab[T]) New(m *Machine) *T { return &s.store(m).take(1)[0] }

// Make returns n zero Ts from m's storage, as a slice with no room to
// append into.
func (s Slab[T]) Make(m *Machine, n int) []T { return s.store(m).take(n) }

// Of returns m's one T of this kind, handing out a zero one on the
// first call of a run: per-machine state that code holding only the
// machine, such as a process body shared by every machine, finds
// again. A kind served by Of is not also served by New or Make.
func (s Slab[T]) Of(m *Machine) *T {
	st := s.store(m)
	if len(st.blocks) > 0 && len(st.blocks[0]) > 0 {
		return &st.blocks[0][0]
	}
	return &st.take(1)[0]
}

// keyedInline is how many entries a Keyed holds without a Go map.
const keyedInline = 8

// Keyed is a Word-keyed lookup for the lazily filled families of a
// machine: Dict members, and the condition sites and mutexes algorithm
// objects make per key. Most families stay small within one run (a
// site's per-process spin cells, G-DSM's sites at small N), and the explorer builds thousands of them, so the first
// keyedInline entries are found by a linear scan of inline arrays;
// a Go map takes over all of them after that. The zero Keyed is empty,
// so a Keyed inside slab storage needs no constructor.
type Keyed[V any] struct {
	n    int
	keys [keyedInline]Word
	vals [keyedInline]V
	more map[Word]V
}

// Get returns the value for key and whether there is one.
func (k *Keyed[V]) Get(key Word) (v V, ok bool) {
	if k.more != nil {
		v, ok = k.more[key]
		return v, ok
	}
	for i, kk := range k.keys[:k.n] {
		if kk == key {
			return k.vals[i], true
		}
	}
	return v, false
}

// Put adds the value for key, which must not have one yet.
func (k *Keyed[V]) Put(key Word, v V) {
	if k.n < keyedInline {
		k.keys[k.n], k.vals[k.n] = key, v
		k.n++
		return
	}
	if k.more == nil {
		k.more = make(map[Word]V, 2*keyedInline)
		for i, kk := range k.keys {
			k.more[kk] = k.vals[i]
		}
	}
	k.more[key] = v
}

// LazyVar is a slot for one variable that is allocated on first touch:
// a memo whose owner fills it with the variable it would otherwise
// have allocated up front. The zero LazyVar is empty, so slots in slab
// storage need no constructor.
type LazyVar struct{ v Var }

// Get returns the slot's variable and whether it has been set.
func (l *LazyVar) Get() (Var, bool) { return l.v, !l.v.IsZero() }

// Set fills the slot with v.
func (l *LazyVar) Set(v Var) { l.v = v }
