package memsim

import (
	"fmt"
	"testing"
)

// refDict is the map-only Dict that the inline representation must
// match: first touch of a key allocates its variable, later touches
// return it.
type refDict struct {
	m    *Machine
	name string
	home func(Word) int
	vars map[Word]Var
}

func (d *refDict) At(key Word) Var {
	if v, ok := d.vars[key]; ok {
		return v
	}
	v := d.m.newIndexedVar(nil, d.name, key, d.home(key), 0)
	d.vars[key] = v
	return v
}

// dictKeys touches 20 distinct keys, more than keyedInline, in an
// interleaved order with repeats of early and late keys.
func dictKeys() []Word {
	var keys []Word
	for i := 0; i < 20; i++ {
		k := Word((i * 7) % 20 * 3) // distinct, out of order
		keys = append(keys, k)
		if i%3 == 0 {
			keys = append(keys, Word((i/2)*7%20*3)) // an earlier key again
		}
		keys = append(keys, k) // the same key at once
	}
	return keys
}

// TestDictMatchesMapReference: past the inline limit and back over
// repeated keys, a Dict hands out the variables a map-based family
// would, in the same allocation order, so every Var index and label is
// unchanged.
func TestDictMatchesMapReference(t *testing.T) {
	const n = 4
	home := func(k Word) int { return int(k % n) }
	for _, model := range []Model{CC, DSM} {
		m, refM := NewMachine(model, n), NewMachine(model, n)
		d := m.NewProcDictIn(nil, "d", 0) // homes key k at k mod n
		ref := &refDict{m: refM, name: "d", home: home, vars: make(map[Word]Var)}
		first := make(map[Word]Var)
		for i, k := range dictKeys() {
			got, want := d.At(k), ref.At(k)
			if got != want {
				t.Fatalf("%v: touch %d of key %d: Var %d, reference %d", model, i, k, got.idx, want.idx)
			}
			if v, ok := first[k]; ok && v != got {
				t.Fatalf("%v: key %d: Var %d, first touch gave %d", model, k, got.idx, v.idx)
			}
			first[k] = got
		}
		if len(first) <= keyedInline {
			t.Fatalf("only %d keys: the map representation is not exercised", len(first))
		}
		if got, want := fmt.Sprint(VarLabels(m)), fmt.Sprint(VarLabels(refM)); got != want {
			t.Fatalf("%v: labels %s, reference %s", model, got, want)
		}
		for k, v := range first {
			if home := int(m.varAt(v).home); home != int(k%n) {
				t.Errorf("%v: key %d homed at %d", model, k, home)
			}
		}
	}
}

// TestDictAtExistingKeyAllocatesNothing, for a Dict still within its
// inline array and for one whose members moved to a map.
func TestDictAtExistingKeyAllocatesNothing(t *testing.T) {
	m := NewMachine(DSM, 2)
	keys := dictKeys()
	small, big := m.NewDict("small", HomeGlobal, 0), m.NewDict("big", HomeGlobal, 0)
	for _, k := range keys[:keyedInline] {
		small.At(k)
	}
	for _, k := range keys {
		big.At(k)
	}
	if small.vars.more != nil || big.vars.more == nil {
		t.Fatalf("small Dict has a map: %v, big Dict has a map: %v", small.vars.more != nil, big.vars.more != nil)
	}
	for _, d := range []*Dict{small, big} {
		for _, k := range []Word{keys[0], keys[keyedInline-1]} {
			if allocs := testing.AllocsPerRun(100, func() { d.At(k) }); allocs != 0 {
				t.Errorf("%s.At(%d) on an existing key: %.0f allocations", d.name, k, allocs)
			}
		}
	}
}

// TestProcDictAtBigN: the per-process spin family of the big-n shape,
// one member per process of 256, touched in descending and then
// ascending order, keeps each process's variable at its own home.
func TestProcDictAtBigN(t *testing.T) {
	const n = 256
	m := NewMachine(DSM, n)
	d := m.NewProcDictIn(nil, "spin", 0)
	vars := make([]Var, n)
	for p := n - 1; p >= 0; p-- {
		vars[p] = d.At(Word(p))
	}
	for p := 0; p < n; p++ {
		if v := d.At(Word(p)); v != vars[p] {
			t.Fatalf("process %d: Var %d, first touch gave %d", p, v.idx, vars[p].idx)
		}
		vv := m.varAt(vars[p])
		if int(vv.home) != p || int(vars[p].idx) != n-p {
			t.Fatalf("process %d: Var %d homed at %d, want Var %d homed at %d", p, vars[p].idx, vv.home, n-p, p)
		}
		if got, want := vv.label(), fmt.Sprintf("spin[%d]", p); got != want {
			t.Fatalf("process %d: label %q, want %q", p, got, want)
		}
	}
}
