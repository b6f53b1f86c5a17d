package memsim

// dicts is the storage Dicts are carved from.
var dicts = NewSlab[Dict]()

// Dict is a lazily allocated family of shared variables indexed by
// Word keys. Algorithms G-CC and G-DSM index their Signal and Waiter
// arrays by fetch-and-φ values ("array[Vartype] of ..."), whose domain
// may be unbounded (e.g. unbounded fetch-and-increment); a Dict gives
// each used key its own simulated variable on first access, found
// through a Keyed.
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

	// The home rule: key mod N when homeByKey (NewProcDictIn), else
	// home (NewDictIn).
	homeByKey bool
	home      int

	vars Keyed[Var]
}

// newDict hands out a Dict from the machine's storage, named prefix
// followed by name, with the given initial value and no home rule yet.
func (m *Machine) newDict(prefix *Prefix, name string, init Word) *Dict {
	d := dicts.New(m)
	d.m, d.prefix, d.name, d.init = m, prefix, name, init
	return d
}

// NewDict returns a variable family with the given DSM home and initial
// value for every key.
func (m *Machine) NewDict(name string, home int, init Word) *Dict {
	return m.NewDictIn(nil, name, home, init)
}

// NewDictIn is NewDict for a family of a compound object: its members
// are named prefix followed by name[key], joined only when first asked
// for.
func (m *Machine) NewDictIn(prefix *Prefix, name string, home int, init Word) *Dict {
	d := m.newDict(prefix, name, init)
	d.home = home
	return d
}

// NewProcDictIn returns a variable family of a compound object (see
// NewDictIn) whose member for key k is homed at process k mod N: the
// layout for dedicated per-process spin variables allocated on demand,
// keyed by process id or by a round-stamped key round·N + p.
func (m *Machine) NewProcDictIn(prefix *Prefix, name string, init Word) *Dict {
	d := m.newDict(prefix, name, init)
	d.homeByKey = true
	return d
}

// homeOf returns the home of the member for key.
func (d *Dict) homeOf(key Word) int {
	if d.homeByKey {
		return int(key % Word(d.m.nproc))
	}
	return d.home
}

// At returns the variable for key, allocating it on first use.
func (d *Dict) At(key Word) Var {
	if v, ok := d.vars.Get(key); ok {
		return v
	}
	v := d.New(key)
	d.vars.Put(key, v)
	return v
}

// New allocates the member for key, named and homed as At would, but
// does not index it: At will not find it. It serves a family whose
// owner keeps its members' handles itself and allocates each key once.
func (d *Dict) New(key Word) Var {
	return d.m.newIndexedVar(d.prefix, d.name, key, d.homeOf(key), d.init)
}
