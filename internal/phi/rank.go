package phi

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements an empirical checker for the rank definition
// (paper, Sec. 2). The checker simulates random interleavings of the
// processes' schedule-driven invocation loops on a single variable and
// verifies conditions (i)–(iii) over the first r invocations. A
// violation disproves rank ≥ r; absence of violations over many trials
// is (necessarily) only evidence, which is the best any finite check
// can do for a universally quantified property.

// RankViolation describes a concrete interleaving that violates one of
// the three rank conditions.
type RankViolation struct {
	Primitive string
	Condition int // 1, 2 or 3, matching conditions (i)-(iii)
	R         int // the rank being tested
	Trial     int // which random trial exposed it
	Invoke    int // 0-based global index of the offending invocation
	Detail    string
}

// Error implements the error interface so violations can flow through
// error-returning APIs.
func (v *RankViolation) Error() string {
	return fmt.Sprintf("phi: %s violates rank-%d condition (%s) at invocation %d (trial %d): %s",
		v.Primitive, v.R, [...]string{"i", "ii", "iii"}[v.Condition-1], v.Invoke, v.Trial, v.Detail)
}

// CheckRank tests whether prim behaves consistently with rank ≥ r for
// an n-process system, over trials random interleavings (each with
// random per-process schedule offsets a_p, as the definition allows).
// It returns nil if no violation was found, or the first violation.
//
// All of a call's state is built once, before the first trial, so the
// trials allocate nothing and each invocation costs O(1).
func CheckRank(prim Primitive, n, r, trials int, seed int64) *RankViolation {
	return checkRank(rand.New(rand.NewSource(seed)), prim, n, r, trials)
}

// checkRank is CheckRank drawing from rng, freshly seeded.
func checkRank(rng *rand.Rand, prim Primitive, n, r, trials int) *RankViolation {
	return newRankState(prim, n).check(rng, r, trials)
}

// rankState is the reusable trial state of one primitive's checks: a
// CheckRank call, or every rank of an EstimateRank call.
type rankState struct {
	prim      Primitive
	r         int
	schedules [][]Word // α[p]; Inputs is pure, so fetched once
	next      []int    // each process's next schedule index, in [0, len(α[p]))
	last      []Word   // last value each process wrote, valid if wrote[p]
	wrote     []bool
	owners    ownerTable
}

func newRankState(prim Primitive, n int) *rankState {
	s := &rankState{
		prim:      prim,
		schedules: make([][]Word, n),
		next:      make([]int, n),
		last:      make([]Word, n),
		wrote:     make([]bool, n),
	}
	for p := range s.schedules {
		s.schedules[p] = prim.Inputs(p)
	}
	return s
}

// check runs trials random interleavings of r invocations and returns
// the first violation, or nil. The owner table grows only when 2r
// exceeds it; a larger table holds the same owners, so the result does
// not depend on its size.
func (s *rankState) check(rng *rand.Rand, r, trials int) *RankViolation {
	s.r = r
	if len(s.owners.vals) < 2*r {
		s.owners = newOwnerTable(2 * r)
	}
	for t := 0; t < trials; t++ {
		if v := s.trial(rng); v != nil {
			v.Trial = t
			return v
		}
	}
	return nil
}

// trial runs one random interleaving of r invocations and checks the
// three conditions. It draws from rng in a fixed order — every a_p
// offset, then one process per invocation — so a given seed always
// yields the same interleavings and the same first violation.
func (s *rankState) trial(rng *rand.Rand) *RankViolation {
	n, r := len(s.schedules), s.r
	for p := 0; p < n; p++ {
		s.next[p] = rng.Intn(len(s.schedules[p])) // arbitrary a_p
		s.wrote[p] = false
	}
	s.owners.clear()

	value := Bottom
	for k := 0; k < r; k++ {
		p := rng.Intn(n)
		sched, i := s.schedules[p], s.next[p]
		input := sched[i]
		if i++; i == len(sched) {
			i = 0
		}
		s.next[p] = i
		old := value
		value = s.prim.Apply(old, input)

		// Condition (iii): of the first r invocations, only the
		// first returns ⊥.
		if k > 0 && old == Bottom {
			return &RankViolation{
				Primitive: s.prim.Name(), Condition: 3, R: r, Invoke: k,
				Detail: "non-first invocation returned ⊥",
			}
		}
		if k < r-1 {
			// Condition (i): among the first r−1 invocations, any
			// two by different processes write different values.
			slot, owner := s.owners.find(value)
			if owner >= 0 && owner != p {
				return &RankViolation{
					Primitive: s.prim.Name(), Condition: 1, R: r, Invoke: k,
					Detail: fmt.Sprintf("processes %d and %d both wrote %d", owner, p, value),
				}
			}
			// Condition (ii): successive invocations by the same
			// process write different values.
			if s.wrote[p] && s.last[p] == value {
				return &RankViolation{
					Primitive: s.prim.Name(), Condition: 2, R: r, Invoke: k,
					Detail: fmt.Sprintf("process %d wrote %d twice in a row", p, value),
				}
			}
			if owner < 0 {
				s.owners.claim(slot, value, p)
			}
			s.last[p], s.wrote[p] = value, true
		}
	}
	return nil
}

// ownerTable maps each value written so far in a trial to the process
// that wrote it: an open-addressing hash table with linear probing.
//
// One owner per value suffices for condition (i): until a violation
// ends the trial, no two processes have written the same value, so
// the owner is exactly the earlier writer a scan of all writes would
// find.
type ownerTable struct {
	vals  []Word
	procs []int
	used  []bool
	shift uint // 64 − log2(len(vals)), for Fibonacci hashing
}

// newOwnerTable returns a table of at least minSlots slots. A trial
// inserts at most r−1 values, so 2r slots keep the load below 1/2.
func newOwnerTable(minSlots int) ownerTable {
	size := 1 << bits.Len(uint(max(minSlots, 2)-1))
	return ownerTable{
		vals:  make([]Word, size),
		procs: make([]int, size),
		used:  make([]bool, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// clear empties the table.
func (t *ownerTable) clear() { clear(t.used) }

// find returns the slot holding v and v's owner, or, if v is absent,
// the empty slot where it belongs and owner −1.
func (t *ownerTable) find(v Word) (slot, owner int) {
	mask := len(t.vals) - 1
	for i := int(uint64(v) * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		if !t.used[i] {
			return i, -1
		}
		if t.vals[i] == v {
			return i, t.procs[i]
		}
	}
}

// claim records p as the owner of v in the empty slot find returned.
func (t *ownerTable) claim(slot int, v Word, p int) {
	t.vals[slot], t.procs[slot], t.used[slot] = v, p, true
}

// EstimateRank returns the largest r ≤ maxR for which CheckRank finds
// no violation. For primitives of infinite rank it returns maxR.
func EstimateRank(prim Primitive, n, maxR, trials int, seed int64) int {
	// Each rank's check draws from CheckRank's stream for seed+r: one
	// source, reseeded, restarts that stream exactly. The ranks share
	// one trial state too.
	rng := rand.New(rand.NewSource(seed))
	s := newRankState(prim, n)
	best := 0
	for r := 1; r <= maxR; r++ {
		rng.Seed(seed + int64(r))
		if s.check(rng, r, trials) != nil {
			break
		}
		best = r
	}
	return best
}

// CheckSelfReset verifies the two self-resettability requirements
// (paper, Sec. 4): the algebraic reset identity φ(φ(⊥, α[p][i]),
// β[p][i]) = ⊥ for every process and schedule position, and the
// uniqueness of the ⊥ return over random α-only interleavings of
// length steps. It returns nil on success.
func CheckSelfReset(prim SelfResettable, n, steps, trials int, seed int64) error {
	schedules := make([][]Word, n)
	for p := 0; p < n; p++ {
		alphas, betas := prim.Inputs(p), prim.Resets(p)
		schedules[p] = alphas
		if len(alphas) != len(betas) {
			return fmt.Errorf("phi: %s: α and β schedules differ in length for process %d", prim.Name(), p)
		}
		for i, a := range alphas {
			if got := prim.Apply(prim.Apply(Bottom, a), betas[i]); got != Bottom {
				return fmt.Errorf("phi: %s: φ(φ(⊥, α[%d][%d]), β[%d][%d]) = %d, want ⊥", prim.Name(), p, i, p, i, got)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	counters := make([]int, n)
	for t := 0; t < trials; t++ {
		clear(counters)
		value := Bottom
		for k := 0; k < steps; k++ {
			p := rng.Intn(n)
			sched := schedules[p]
			old := value
			value = prim.Apply(old, sched[counters[p]%len(sched)])
			counters[p]++
			if k > 0 && old == Bottom {
				return fmt.Errorf("phi: %s: invocation %d of trial %d returned ⊥", prim.Name(), k, t)
			}
		}
	}
	return nil
}

// Survey runs check on every primitive of prims on up to workers
// goroutines (0 or negative: GOMAXPROCS) and returns the results in
// prims order. The checkers above each draw from their own seeded
// source and share no state, so one primitive's result never depends
// on another's, on the worker count or on the order the workers finish
// in; only wall-clock time does.
func Survey[T any](prims []Primitive, workers int, check func(Primitive) T) []T {
	out := make([]T, len(prims))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(prims))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(prims) {
					return
				}
				out[i] = check(prims[i])
			}
		}()
	}
	wg.Wait()
	return out
}
