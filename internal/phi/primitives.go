package phi

import "fmt"

// This file implements the concrete fetch-and-φ primitives discussed in
// the paper:
//
//	primitive                        rank        self-resettable
//	------------------------------   ---------   ---------------
//	fetch-and-increment (unbounded)  infinite    no
//	r-bounded fetch-and-increment    r           no
//	fetch-and-store                  infinite    yes (β = ⊥)
//	fetch-and-add (+1 schedule)      infinite    yes (β = −1)
//	bounded inc/dec on 0..2          3           yes (β = −1)
//	test-and-set                     2           no
//	compare-and-swap                 2           no
//	double-compare-and-swap          3           yes
//	set-and-write (TAS + write bit)  infinite    yes (β = clear)

// The schedules every process shares. Callers must not modify a
// schedule (see Primitive.Inputs), so one slice serves every call.
var (
	bottoms  = []Word{Bottom, Bottom}
	plusOne  = []Word{1}
	minusOne = []Word{-1}
)

// FetchAndIncrement is the unbounded fetch-and-increment primitive:
// φ(old, in) = old + 1. The input is unused; its rank is infinite
// because successive values are strictly increasing.
type FetchAndIncrement struct{}

// Name implements Primitive.
func (FetchAndIncrement) Name() string { return "fetch-and-increment" }

// Apply implements Primitive.
func (FetchAndIncrement) Apply(old, _ Word) Word { return old + 1 }

// Rank implements Primitive.
func (FetchAndIncrement) Rank() int { return RankInfinite }

// Inputs implements Primitive. The input parameter is extraneous for
// fetch-and-increment, so the schedule is the single value ⊥.
func (FetchAndIncrement) Inputs(int) []Word { return bottoms[:1:1] }

// BoundedFetchInc is the r-bounded fetch-and-increment primitive on a
// variable with range 0..r−1: φ(old, in) = min(r−1, old+1). Any r
// consecutive invocations on a fresh variable return the distinct
// values 0..r−1, and every later invocation returns r−1; hence its rank
// is exactly r (paper, Sec. 2 example).
type BoundedFetchInc struct{ r int }

// NewBoundedFetchInc returns the r-bounded fetch-and-increment
// primitive. r must be at least 2.
func NewBoundedFetchInc(r int) *BoundedFetchInc {
	if r < 2 {
		panic(fmt.Sprintf("phi: bounded fetch-and-increment needs r >= 2, got %d", r))
	}
	return &BoundedFetchInc{r: r}
}

// Name implements Primitive.
func (b *BoundedFetchInc) Name() string { return fmt.Sprintf("%d-bounded-fetch-and-increment", b.r) }

// Apply implements Primitive.
func (b *BoundedFetchInc) Apply(old, _ Word) Word {
	if old+1 > Word(b.r-1) {
		return Word(b.r - 1)
	}
	return old + 1
}

// Rank implements Primitive.
func (b *BoundedFetchInc) Rank() int { return b.r }

// Inputs implements Primitive.
func (b *BoundedFetchInc) Inputs(int) []Word { return bottoms[:1:1] }

// FetchAndStore is the fetch-and-store (swap) primitive: φ(old, in) =
// in. Process p's schedule alternates the two encoded pairs (p, 0) and
// (p, 1), which are distinct across processes and across successive
// invocations by one process, so the rank is infinite (paper, Sec. 2
// example). It is self-resettable with β = ⊥: storing ⊥ restores the
// initial value.
type FetchAndStore struct{}

// EncodePair encodes the pair (p, bit) written by fetch-and-store into
// a nonzero Word (⊥ = 0 is reserved).
func EncodePair(p, bit int) Word { return Word(2*p+bit) + 1 }

// DecodePair inverts EncodePair; ok is false for ⊥.
func DecodePair(w Word) (p, bit int, ok bool) {
	if w == Bottom {
		return 0, 0, false
	}
	v := int(w - 1)
	return v / 2, v % 2, true
}

// Name implements Primitive.
func (FetchAndStore) Name() string { return "fetch-and-store" }

// Apply implements Primitive.
func (FetchAndStore) Apply(_, input Word) Word { return input }

// Rank implements Primitive.
func (FetchAndStore) Rank() int { return RankInfinite }

// Inputs implements Primitive.
func (FetchAndStore) Inputs(p int) []Word {
	return []Word{EncodePair(p, 0), EncodePair(p, 1)}
}

// Resets implements SelfResettable: swapping ⊥ in restores ⊥.
func (FetchAndStore) Resets(int) []Word { return bottoms[:2] }

// FetchAndAdd is the fetch-and-add primitive φ(old, in) = old + in with
// the all-+1 input schedule. Like fetch-and-increment its rank is
// infinite; unlike it, it is self-resettable with β = −1 (adding −1 to
// the value 1 produced by a first invocation on ⊥ restores ⊥).
type FetchAndAdd struct{}

// Name implements Primitive.
func (FetchAndAdd) Name() string { return "fetch-and-add" }

// Apply implements Primitive.
func (FetchAndAdd) Apply(old, input Word) Word { return old + input }

// Rank implements Primitive.
func (FetchAndAdd) Rank() int { return RankInfinite }

// Inputs implements Primitive.
func (FetchAndAdd) Inputs(int) []Word { return plusOne }

// Resets implements SelfResettable.
func (FetchAndAdd) Resets(int) []Word { return minusOne }

// BoundedIncDec is the paper's canonical constant-rank self-resettable
// primitive (Sec. 4, concluding examples): fetch-and-increment/
// decrement with the bounded range 0..2, φ(old, in) = clamp(old+in,
// 0, 2). The α schedule is +1 and the β schedule −1. Starting from ⊥,
// α-invocations return 0, 1, 2, 2, ... (values written: 1, 2, 2, ...),
// so the rank is exactly 3; and φ(φ(⊥, +1), −1) = ⊥, so it is
// self-resettable. Algorithm T is asymptotically time-optimal when
// instantiated with this primitive.
type BoundedIncDec struct{}

// Name implements Primitive.
func (BoundedIncDec) Name() string { return "bounded-inc-dec-0..2" }

// Apply implements Primitive.
func (BoundedIncDec) Apply(old, input Word) Word {
	v := old + input
	if v < 0 {
		return 0
	}
	if v > 2 {
		return 2
	}
	return v
}

// Rank implements Primitive.
func (BoundedIncDec) Rank() int { return 3 }

// Inputs implements Primitive.
func (BoundedIncDec) Inputs(int) []Word { return plusOne }

// Resets implements SelfResettable.
func (BoundedIncDec) Resets(int) []Word { return minusOne }

// TestAndSet is the test-and-set primitive on a boolean (⊥ = false =
// 0): φ(old, in) = true. Following the paper's convention it returns
// the variable's original value rather than a success boolean. It is a
// comparison primitive of rank 2: the first two invocations both write
// true, so condition (i) fails for r = 3.
type TestAndSet struct{}

// Name implements Primitive.
func (TestAndSet) Name() string { return "test-and-set" }

// Apply implements Primitive.
func (TestAndSet) Apply(_, _ Word) Word { return 1 }

// Rank implements Primitive.
func (TestAndSet) Rank() int { return 2 }

// Inputs implements Primitive.
func (TestAndSet) Inputs(int) []Word { return bottoms[:1:1] }

// CompareAndSwap is the compare-and-swap primitive. The input encodes a
// (cmp, new) pair; φ(old, (cmp, new)) = new if old = cmp, else old.
// Following the paper it returns the original value. Its rank is 2:
// with any fixed per-process schedule, once some process's new value is
// installed, later invocations by other processes (whose cmp is ⊥)
// leave the value unchanged, violating condition (i) at r = 3.
// Comparison primitives such as this one are subject to the
// Ω(log N / log log N) lower bound of Anderson & Kim (PODC 2001).
type CompareAndSwap struct{}

// EncodeCAS packs a (cmp, new) input pair. Both values must fit in 24
// bits (they encode small process-derived values in practice).
func EncodeCAS(cmp, newVal Word) Word {
	const width = 24
	if cmp < 0 || cmp >= 1<<width || newVal < 0 || newVal >= 1<<width {
		panic("phi: CAS operand out of range")
	}
	return cmp<<width | newVal | 1<<(2*width) // tag bit keeps inputs nonzero
}

// DecodeCAS unpacks a (cmp, new) input pair.
func DecodeCAS(in Word) (cmp, newVal Word) {
	const width = 24
	return (in >> width) & (1<<width - 1), in & (1<<width - 1)
}

// Name implements Primitive.
func (CompareAndSwap) Name() string { return "compare-and-swap" }

// Apply implements Primitive.
func (CompareAndSwap) Apply(old, input Word) Word {
	cmp, newVal := DecodeCAS(input)
	if old == cmp {
		return newVal
	}
	return old
}

// Rank implements Primitive.
func (CompareAndSwap) Rank() int { return 2 }

// Inputs implements Primitive. Process p tries to install its own
// (nonzero) identity-derived value over ⊥.
func (CompareAndSwap) Inputs(p int) []Word {
	return []Word{EncodeCAS(Bottom, Word(p)+1)}
}

// DoubleCompareSwap is the paper's "variant of compare-and-swap that
// allows two different compare values to be specified" (Sec. 4,
// concluding examples). The input encodes two (cmp→new) rules; the
// first matching rule fires. With the schedule (⊥→A, A→B) the values
// written by a fresh variable's first invocations are A, B, B, ..., so
// the rank is exactly 3; and the reset rule (A→⊥) makes it
// self-resettable.
type DoubleCompareSwap struct{}

// Distinguished values for the DoubleCompareSwap value domain.
const (
	dcasA Word = 1
	dcasB Word = 2
)

// EncodeDCAS packs two (cmp, new) rules, each value in 0..255.
func EncodeDCAS(c1, n1, c2, n2 Word) Word {
	for _, v := range [...]Word{c1, n1, c2, n2} {
		if v < 0 || v > 255 {
			panic("phi: DCAS operand out of range")
		}
	}
	return c1<<24 | n1<<16 | c2<<8 | n2 | 1<<32 // tag bit keeps inputs nonzero
}

// DecodeDCAS unpacks the two rules.
func DecodeDCAS(in Word) (c1, n1, c2, n2 Word) {
	return (in >> 24) & 255, (in >> 16) & 255, (in >> 8) & 255, in & 255
}

// Name implements Primitive.
func (DoubleCompareSwap) Name() string { return "double-compare-and-swap" }

// Apply implements Primitive.
func (DoubleCompareSwap) Apply(old, input Word) Word {
	c1, n1, c2, n2 := DecodeDCAS(input)
	if old == c1 {
		return n1
	}
	if old == c2 {
		return n2
	}
	return old
}

// Rank implements Primitive.
func (DoubleCompareSwap) Rank() int { return 3 }

// Inputs implements Primitive: the rules (⊥→A, A→B).
func (DoubleCompareSwap) Inputs(int) []Word {
	return []Word{EncodeDCAS(Bottom, dcasA, dcasA, dcasB)}
}

// Resets implements SelfResettable: the rule (A→⊥) undoes a first
// invocation on ⊥ (the second rule is an inert self-map).
func (DoubleCompareSwap) Resets(int) []Word {
	return []Word{EncodeDCAS(dcasA, Bottom, dcasB, dcasB)}
}

// SetAndWrite models the paper's "simultaneous execution of a
// test-and-set and a write operation on different bits of a variable"
// (Sec. 4, concluding examples). Bit 0 is the set bit; the input's
// payload is written to the remaining bits. With per-process payloads
// (p, parity) every invocation writes a distinct value, so the rank of
// this encoding is infinite; a clear input resets the whole variable,
// making it self-resettable.
type SetAndWrite struct{}

// setAndWriteClear is the reserved reset input.
const setAndWriteClear Word = -1

// Name implements Primitive.
func (SetAndWrite) Name() string { return "set-and-write" }

// Apply implements Primitive.
func (SetAndWrite) Apply(_, input Word) Word {
	if input == setAndWriteClear {
		return Bottom
	}
	return input<<1 | 1
}

// Rank implements Primitive.
func (SetAndWrite) Rank() int { return RankInfinite }

// Inputs implements Primitive.
func (SetAndWrite) Inputs(p int) []Word {
	return []Word{EncodePair(p, 0), EncodePair(p, 1)}
}

// Resets implements SelfResettable.
func (SetAndWrite) Resets(int) []Word {
	return []Word{setAndWriteClear, setAndWriteClear}
}

// ConsensusNumber returns the primitive's place in Herlihy's wait-free
// hierarchy, for the paper's Sec. 5 comparison: primitives that are
// strong for nonblocking synchronization (compare-and-swap, consensus
// number ∞) are weak for blocking synchronization (rank 2), and vice
// versa (fetch-and-increment/store: consensus number 2, rank ∞). The
// interfering read-modify-write operations (increment, store, add, or,
// xor, max, set) all have consensus number 2; comparison primitives
// that can decide among arbitrarily many proposals have ∞.
func ConsensusNumber(p Primitive) int {
	switch p.(type) {
	case CompareAndSwap, DoubleCompareSwap:
		return RankInfinite
	default:
		return 2
	}
}

// Compile-time interface compliance checks.
var (
	_ Primitive      = FetchAndIncrement{}
	_ Primitive      = (*BoundedFetchInc)(nil)
	_ SelfResettable = FetchAndStore{}
	_ SelfResettable = FetchAndAdd{}
	_ SelfResettable = BoundedIncDec{}
	_ Primitive      = TestAndSet{}
	_ Primitive      = CompareAndSwap{}
	_ SelfResettable = DoubleCompareSwap{}
	_ SelfResettable = SetAndWrite{}
)

// All returns one instance of every primitive in this package,
// parameterized where needed for an N-process system (the bounded
// fetch-and-increment is given rank 2N, the smallest rank sufficient
// for Algorithms G-CC and G-DSM).
func All(n int) []Primitive {
	return []Primitive{
		FetchAndIncrement{},
		NewBoundedFetchInc(2 * n),
		FetchAndStore{},
		FetchAndAdd{},
		BoundedIncDec{},
		TestAndSet{},
		CompareAndSwap{},
		DoubleCompareSwap{},
		SetAndWrite{},
		NewFetchAndOr(n),
		NewFetchAndXor(n),
		NewFetchAndMax(n),
	}
}
