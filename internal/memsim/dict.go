package memsim

// Dict is a lazily allocated family of shared variables indexed by
// Word keys. Algorithms G-CC and G-DSM index their Signal and Waiter
// arrays by fetch-and-φ values ("array[Vartype] of ..."), whose domain
// may be unbounded (e.g. unbounded fetch-and-increment); a Dict gives
// each used key its own simulated variable on first access.
//
// Allocation happens inside the accessing process's scheduling turn and
// is deterministic, so it does not perturb exploration or replay.
type Dict struct {
	m       *Machine
	prefix  *Prefix // owner's name, or nil
	name    string
	homeFor func(key Word) int
	init    Word
	vars    map[Word]Var
}

// NewDict returns a variable family with the given DSM home and initial
// value for every key.
func (m *Machine) NewDict(name string, home int, init Word) *Dict {
	return &Dict{
		m: m, name: name, init: init,
		homeFor: func(Word) int { return home },
		vars:    make(map[Word]Var),
	}
}

// NewDictHomed returns a variable family whose per-key home is
// computed by homeFor — e.g. round-stamped spin cells keyed by
// (round·N + p) and homed at p.
func (m *Machine) NewDictHomed(name string, homeFor func(key Word) int, init Word) *Dict {
	return &Dict{
		m: m, name: name, init: init,
		homeFor: homeFor,
		vars:    make(map[Word]Var),
	}
}

// NewDictHomedIn is NewDictHomed for a family of a compound object:
// its members are named prefix followed by name[key], joined only when
// first asked for.
func (m *Machine) NewDictHomedIn(prefix *Prefix, name string, homeFor func(key Word) int, init Word) *Dict {
	d := m.NewDictHomed(name, homeFor, init)
	d.prefix = prefix
	return d
}

// NewProcDict returns a variable family indexed by process id, where
// the variable for key p is homed at process p — the layout for
// dedicated per-process spin variables allocated on demand.
func (m *Machine) NewProcDict(name string, init Word) *Dict {
	return &Dict{
		m: m, name: name, init: init,
		homeFor: func(key Word) int { return int(key) },
		vars:    make(map[Word]Var),
	}
}

// At returns the variable for key, allocating it on first use.
func (d *Dict) At(key Word) Var {
	if v, ok := d.vars[key]; ok {
		return v
	}
	v := d.m.newIndexedVar(d.prefix, d.name, key, d.homeFor(key), d.init)
	d.vars[key] = v
	return v
}
