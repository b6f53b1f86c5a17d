// Package phi defines the fetch-and-φ primitive framework from
// Anderson & Kim, "Local-spin Mutual Exclusion Using Fetch-and-φ
// Primitives" (ICDCS 2003).
//
// A fetch-and-φ primitive is characterized by a deterministic function
// φ(old, input). Invoking it on a variable v with input in atomically
// replaces v's value with φ(v, in) and returns v's old value.
//
// The central notion is the *rank* of a primitive: informally, a
// primitive of rank r has enough symmetry-breaking power to linearly
// order up to r invocations by different processes. Formally (paper,
// Sec. 2), rank is the largest r such that each process p has a cyclic
// input schedule α[p] with the property that in ANY interleaving of the
// processes' schedule-driven invocations on a variable initially ⊥:
//
//	(i)   any two of the first r−1 invocations by different processes
//	      write different values,
//	(ii)  any two successive invocations among the first r−1 by the
//	      same process write different values, and
//	(iii) of the first r invocations, only the first returns ⊥.
//
// All variable values and inputs are encoded into the machine word type
// Word; by convention every primitive in this package uses Bottom (0)
// as its ⊥ value.
package phi

import "math"

// Word is the value domain of simulated shared-memory variables. Every
// VarType used by a primitive (booleans, bounded counters, process/bit
// pairs, ...) is encoded into a Word.
type Word int64

// Bottom is the conventional encoding of ⊥, the initial value of any
// variable accessed by a fetch-and-φ primitive.
const Bottom Word = 0

// RankInfinite is returned by Primitive.Rank for primitives whose rank
// definition is satisfied for arbitrarily large r (e.g. unbounded
// fetch-and-increment, fetch-and-store).
const RankInfinite = math.MaxInt

// Primitive is a fetch-and-φ primitive: the φ function together with
// the per-process input schedules α[p] that realize its rank.
//
// Implementations must be deterministic and side-effect free: Apply is
// a pure function of (old, input).
type Primitive interface {
	// Name returns a short identifier such as "fetch-and-store".
	Name() string

	// Apply returns φ(old, input).
	Apply(old, input Word) Word

	// Rank returns the primitive's rank, or RankInfinite. For
	// primitives whose rank was chosen at construction time (e.g.
	// NewBoundedFetchInc(r) has rank r) this reports that choice.
	Rank() int

	// Inputs returns the input schedule α[p] for process p: process
	// p's i-th invocation uses input α[p][i mod len(α[p])]. The
	// returned slice must not be modified and must be non-empty.
	Inputs(p int) []Word
}

// SelfResettable is implemented by primitives that can reset a variable
// using the primitive itself (paper, Sec. 4): for each α[p][i] there is
// a β[p][i] with φ(φ(⊥, α[p][i]), β[p][i]) = ⊥, and in any interleaving
// of schedule-driven invocations only the first returns ⊥ (so a return
// of ⊥ reliably identifies the variable's owner).
type SelfResettable interface {
	Primitive

	// Resets returns the reset schedule β[p], index-aligned with
	// Inputs(p).
	Resets(p int) []Word
}

// Invoker tracks one process's private invocation counter for one
// variable, supplying successive α (and β) inputs. It corresponds to
// the private variable "counter" in Algorithms G-CC/G-DSM and to the
// per-variable counter i_v used by fetch-and-update / fetch-and-reset
// in Algorithm T.
type Invoker struct {
	prim    Primitive
	inputs  []Word
	resets  []Word // nil if not self-resettable
	counter int
	last    int // schedule index of the most recent UpdateInput
}

// NewInvoker returns an Invoker for process p on prim, with its α (and
// β) schedule built once, here. It is a value, to be held in place by
// the object that owns the counter.
func NewInvoker(prim Primitive, p int) Invoker {
	inv := Invoker{prim: prim, inputs: prim.Inputs(p), last: -1}
	if sr, ok := prim.(SelfResettable); ok {
		inv.resets = sr.Resets(p)
	}
	return inv
}

// Primitive returns the underlying primitive.
func (inv *Invoker) Primitive() Primitive { return inv.prim }

// UpdateInput returns the α input for the next invocation and advances
// the private counter. It corresponds to the parameter selection of the
// paper's fetch-and-update operation.
func (inv *Invoker) UpdateInput() Word {
	inv.last = inv.counter % len(inv.inputs)
	inv.counter++
	return inv.inputs[inv.last]
}

// ResetInput returns the β input paired with the α most recently
// returned by UpdateInput, so that φ(φ(⊥, α), β) = ⊥. It corresponds to
// the parameter selection of the paper's fetch-and-reset operation, and
// panics if the primitive is not self-resettable or if UpdateInput has
// not been called.
func (inv *Invoker) ResetInput() Word {
	if inv.resets == nil {
		panic("phi: primitive " + inv.prim.Name() + " is not self-resettable")
	}
	if inv.last < 0 {
		panic("phi: ResetInput before any UpdateInput")
	}
	return inv.resets[inv.last]
}

// Apply is shorthand for inv.Primitive().Apply.
func (inv *Invoker) Apply(old, input Word) Word { return inv.prim.Apply(old, input) }
