package memsim

// dictInline is how many members a Dict keeps without a Go map. Most
// families stay this small within one run (a two-process mutex's cells
// for its first rounds, G-DSM's signal cells at small N), and a run of
// the explorer builds thousands of them, so they are found by a linear
// scan of an inline array instead of paying for a map each.
const dictInline = 8

// dictBlockLen is the number of Dicts in one block of a machine's Dict
// storage. Blocks stay with the machine when it is released, like its
// variable chunks, so a run of the explorer hands out Dicts without
// allocating them.
const dictBlockLen = 8

// dictBlock is one block of a machine's Dicts.
type dictBlock [dictBlockLen]Dict

// Dict is a lazily allocated family of shared variables indexed by
// Word keys. Algorithms G-CC and G-DSM index their Signal and Waiter
// arrays by fetch-and-φ values ("array[Vartype] of ..."), whose domain
// may be unbounded (e.g. unbounded fetch-and-increment); a Dict gives
// each used key its own simulated variable on first access. Its first
// dictInline members live in an inline array; a Go map takes over all
// of them once there are more.
//
// Allocation happens inside the accessing process's scheduling turn and
// is deterministic, so it does not perturb exploration or replay. A
// Dict belongs to its machine's storage: it is invalid once the
// machine is released.
type Dict struct {
	m      *Machine
	prefix *Prefix // owner's name, or nil
	name   string
	init   Word

	// The home rule: homeFor(key) when homeFor is set (NewDictHomed),
	// else the key itself when homeByKey (NewProcDict), else home
	// (NewDict).
	homeFor   func(key Word) int
	homeByKey bool
	home      int

	// n counts the members. While n <= dictInline they are keys[:n] and
	// vals[:n], in allocation order; after that every member is in vars
	// and keys/vals are unused.
	n    int
	keys [dictInline]Word
	vals [dictInline]Var
	vars map[Word]Var
}

// newDict hands out the machine's next Dict, named prefix followed by
// name, with the given initial value and no home rule yet. Every Dict
// past ndicts is zero (see Release).
func (m *Machine) newDict(prefix *Prefix, name string, init Word) *Dict {
	i := m.ndicts
	if i%dictBlockLen == 0 {
		m.dicts = grow(m.dicts)
	}
	d := &m.dicts[i/dictBlockLen][i%dictBlockLen]
	d.m, d.prefix, d.name, d.init = m, prefix, name, init
	m.ndicts++
	return d
}

// NewDict returns a variable family with the given DSM home and initial
// value for every key.
func (m *Machine) NewDict(name string, home int, init Word) *Dict {
	d := m.newDict(nil, name, init)
	d.home = home
	return d
}

// NewDictHomed returns a variable family whose per-key home is
// computed by homeFor — e.g. round-stamped spin cells keyed by
// (round·N + p) and homed at p.
func (m *Machine) NewDictHomed(name string, homeFor func(key Word) int, init Word) *Dict {
	return m.NewDictHomedIn(nil, name, homeFor, init)
}

// NewDictHomedIn is NewDictHomed for a family of a compound object:
// its members are named prefix followed by name[key], joined only when
// first asked for.
func (m *Machine) NewDictHomedIn(prefix *Prefix, name string, homeFor func(key Word) int, init Word) *Dict {
	d := m.newDict(prefix, name, init)
	d.homeFor = homeFor
	return d
}

// NewProcDict returns a variable family indexed by process id, where
// the variable for key p is homed at process p — the layout for
// dedicated per-process spin variables allocated on demand.
func (m *Machine) NewProcDict(name string, init Word) *Dict {
	d := m.newDict(nil, name, init)
	d.homeByKey = true
	return d
}

// homeOf returns the home of the member for key.
func (d *Dict) homeOf(key Word) int {
	switch {
	case d.homeFor != nil:
		return d.homeFor(key)
	case d.homeByKey:
		return int(key)
	default:
		return d.home
	}
}

// At returns the variable for key, allocating it on first use.
func (d *Dict) At(key Word) Var {
	if d.vars != nil {
		if v, ok := d.vars[key]; ok {
			return v
		}
	} else {
		for i, k := range d.keys[:d.n] {
			if k == key {
				return d.vals[i]
			}
		}
	}
	v := d.m.newIndexedVar(d.prefix, d.name, key, d.homeOf(key), d.init)
	if d.n < dictInline {
		d.keys[d.n], d.vals[d.n] = key, v
	} else {
		if d.vars == nil {
			d.vars = make(map[Word]Var, 2*dictInline)
			for i, k := range d.keys {
				d.vars[k] = d.vals[i]
			}
		}
		d.vars[key] = v
	}
	d.n++
	return v
}
