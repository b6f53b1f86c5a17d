// Package twoproc implements a two-process local-spin mutual exclusion
// algorithm from reads and writes only, in the tradition of Yang &
// Anderson's two-process algorithm (Distributed Computing, 1995). The
// paper's generic algorithms use it as the Acquire₂/Release₂
// component: the two "process identities" are the two *sides* 0 and 1,
// and different actual processes may play a side at different times
// (queue heads in Algorithm G-CC, barrier holders and site waiters in
// the Sec. 3 transformation, promoted processes in Algorithms T0/T).
//
// # Why not the textbook algorithm verbatim
//
// The classic formulation signals through a single per-process spin
// variable P[p] that each entry resets. That is sound when a side's
// successor cannot arrive before its predecessor's exit section has
// completely finished — which the Yang–Anderson arbitration tree
// guarantees structurally. The algorithms in this repository hand
// sides over more eagerly (a released waiter may re-enter through the
// opposite side while its releaser is still finishing Release), and
// under such schedules single-cell signalling admits two classes of
// corruption, both found by the systematic explorer:
//
//   - misdirected signals: an exit that identifies its rival through
//     the tie-breaker T can observe its own side's successor and
//     falsely release it;
//   - wiped or aliased signals: a stale P[p] write from a previous
//     round can erase a fresh release (deadlock) or satisfy a future
//     round's wait (mutual exclusion violation).
//
// This implementation removes both hazards structurally:
//
//   - every acquisition uses a FRESH pair of spin cells, keyed by
//     (process, per-process round number) and homed at the process, so
//     writes can never alias across rounds. The cells are allocated as
//     members of two per-process families, homed by key mod N, and
//     kept in the registering process's record by round; a rival's
//     cells are found by decoding its registration key into process
//     and round, never by a lookup in the families;
//   - the two cells split the two signal phases ("nudge": a rival saw
//     the tie-breaker point at you; "release": a rival finished), so
//     every write is monotone within a round and nothing is wiped;
//   - registrations (C[side], T) carry the full (process, round)
//     identity, exits identify the rival to hand off to from the OTHER
//     side's registration C[1−side] (never from T, which may already
//     name this side's successor), and release signals are VALUE
//     MATCHED: the exiting holder stamps the release cell with its own
//     registration, and a waiter accepts only the stamp of the exact
//     registration it observed — so an exit that reads a future
//     round's registration cannot falsely release it.
//
// Unbounded per-process cell families mirror the paper's own use of
// variables indexed by unbounded fetch-and-φ values (Signal[j][v] in
// Algorithm G-CC); each acquisition still performs O(1) remote memory
// references on both CC and DSM machines, and all busy-waiting is on
// the waiter's own cells.
package twoproc

import (
	"fmt"

	"fetchphi/internal/memsim"
)

// Word is re-exported for brevity.
type Word = memsim.Word

// Mutex is one instance of the two-process algorithm.
type Mutex struct {
	name  memsim.Prefix // prefixes every variable's label
	nproc int

	c [2]memsim.Var // registrations: enc(process, round)+1, 0 = free
	t memsim.Var    // tie-breaker: last registrant

	nudge   *memsim.Dict // nudge[enc]: rival observed T pointing at enc
	release *memsim.Dict // release[enc]: rival's exit has run

	// users holds the private state of each process that has played
	// the instance, the first inlineUsers of them in place and the rest
	// in more. Most instances (a localspin site, a tree node) have a
	// few players however large N is, so the state is sized by them.
	nusers int
	users  [inlineUsers]user
	more   map[int]*user

	// sideUser and holder are host-side assertions (no simulated
	// cost). The side contract is: a side's next user may begin
	// Acquire as soon as the previous user's Release has STARTED;
	// overlapping Acquire-to-Release windows on one side are a caller
	// bug.
	sideUser [2]int
	holder   int
}

// inlineUsers is how many players a Mutex keeps without a map, and
// inlineRounds how many rounds' cells a player keeps without a slice.
const (
	inlineUsers  = 4
	inlineRounds = 4
)

// user is one process's private state in an instance.
type user struct {
	id      int32
	rounds  int32 // acquisitions begun
	current Word  // registration of the open acquisition
	// cells holds every round's spin cells, indexed by round: the
	// first inlineRounds in place, the rest in later.
	cells [inlineRounds]cellPair
	later []cellPair
}

// cellPair is the two spin cells of one registration.
type cellPair struct{ nudge, release memsim.Var }

// mutexes is the storage instances are carved from.
var mutexes = memsim.NewSlab[Mutex]()

// New builds a fresh instance in m's shared memory and storage. The
// name prefixes the underlying variable names for diagnostics.
func New(m *memsim.Machine, name memsim.Prefix) *Mutex {
	l := mutexes.New(m)
	// Labels are joined lazily, so &l.name may be taken before the
	// literal stores name there.
	*l = Mutex{
		name:  name,
		nproc: m.NumProcs(),
		c: [2]memsim.Var{
			m.NewVarIn(&l.name, ".C[0]", memsim.HomeGlobal, 0),
			m.NewVarIn(&l.name, ".C[1]", memsim.HomeGlobal, 0),
		},
		t: m.NewVarIn(&l.name, ".T", memsim.HomeGlobal, 0),
		// Cells for registration key k belong to process k mod N, so
		// they are local to the process that spins on them.
		nudge:    m.NewProcDictIn(&l.name, ".nudge", 0),
		release:  m.NewProcDictIn(&l.name, ".release", 0),
		sideUser: [2]int{-1, -1},
		holder:   -1,
	}
	return l
}

// user returns process id's state, adding it on its first call. The
// state must stay per process, not per side: a side's next user may
// begin Acquire while the previous one's Release is still running, and
// Release reads its own registration.
func (l *Mutex) user(id int) *user {
	in := l.users[:min(l.nusers, inlineUsers)]
	for i := range in {
		if int(in[i].id) == id {
			return &in[i]
		}
	}
	if u, ok := l.more[id]; ok {
		return u
	}
	var u *user
	if l.nusers < inlineUsers {
		u = &l.users[l.nusers]
	} else {
		if l.more == nil {
			l.more = make(map[int]*user)
		}
		u = new(user)
		l.more[id] = u
	}
	u.id = int32(id)
	l.nusers++
	return u
}

// register opens process id's next round: it allocates the round's
// spin cells, homed at id, and returns them with the registration key.
func (l *Mutex) register(id int) (me Word, nudge, release memsim.Var) {
	u := l.user(id)
	me = l.enc(id, int(u.rounds))
	nudge, release = l.nudge.New(me), l.release.New(me)
	if u.rounds < inlineRounds {
		u.cells[u.rounds] = cellPair{nudge, release}
	} else {
		u.later = append(u.later, cellPair{nudge, release})
	}
	u.rounds++
	u.current = me
	return me, nudge, release
}

// cellsOf returns the spin cells of registration key: the ones process
// key mod N allocated for its round key div N. Its record holds them,
// because a process registers before it writes its key where another
// process can read it.
func (l *Mutex) cellsOf(key Word) cellPair {
	u := l.user(int(key % Word(l.nproc)))
	r := int(key / Word(l.nproc))
	if r < inlineRounds {
		return u.cells[r]
	}
	return u.later[r-inlineRounds]
}

// enc packs a (process, round) registration key.
func (l *Mutex) enc(p, round int) Word {
	return Word(round)*Word(l.nproc) + Word(p)
}

// Acquire performs the entry section for proc playing the given side
// (0 or 1). At most one process may play each side at any time.
func (l *Mutex) Acquire(proc *memsim.Proc, side int) {
	checkSide(side)
	if prev := l.sideUser[side]; prev != -1 {
		proc.Fail("twoproc: %s side %d acquired by p%d while p%d uses it (caller contract violated)",
			l.name.String(), side, proc.ID(), prev)
	}
	l.sideUser[side] = proc.ID()

	me, myNudge, myRelease := l.register(proc.ID())

	proc.Write(l.c[side], me+1)
	proc.Write(l.t, me+1)
	rival := proc.Read(l.c[1-side])
	if rival != 0 && proc.Read(l.t) == me+1 {
		// The rival registered first and may be waiting for the
		// tie-breaker to move past it; nudge its current round's
		// cell (a monotone, idempotent write). Note the nudge comes
		// after our T write: a waiter woken by it is guaranteed to
		// observe the moved tie-breaker.
		proc.Write(l.cellsOf(rival-1).nudge, 1)
		proc.Await(func(read func(memsim.Var) Word) bool {
			return read(myNudge) != 0 || read(myRelease) == rival
		}, myNudge, myRelease)
		if proc.Read(l.t) == me+1 {
			proc.AwaitEq(myRelease, rival)
		}
	}

	if l.holder != -1 {
		proc.Fail("twoproc: %s mutual exclusion broken: p%d entered while p%d holds",
			l.name.String(), proc.ID(), l.holder)
	}
	l.holder = proc.ID()
}

// AcquireAbortable is Acquire for abortable entry sections: when an
// abort request is delivered to proc while it waits, the acquisition is
// abandoned and false is returned — proc does NOT hold the lock and
// must not call Release. Abandonment runs the ordinary exit-section
// hand-off (clear the registration, stamp the rival's release cell), so
// a rival waiting on the abandoned registration is released exactly as
// if the aborter had entered and left; the round-fresh, value-matched
// cells make the stamp inert in every other interleaving. The side
// contract is Acquire's; on a false return the side is free again.
//
// The whole abort path is a constant number of operations, which is
// what keeps withdrawals wait-free and the amortized RMR cost of the
// algorithms built on this lock O(1).
func (l *Mutex) AcquireAbortable(proc *memsim.Proc, side int) bool {
	checkSide(side)
	if prev := l.sideUser[side]; prev != -1 {
		proc.Fail("twoproc: %s side %d acquired by p%d while p%d uses it (caller contract violated)",
			l.name.String(), side, proc.ID(), prev)
	}
	l.sideUser[side] = proc.ID()

	me, myNudge, myRelease := l.register(proc.ID())

	proc.Write(l.c[side], me+1)
	proc.Write(l.t, me+1)
	rival := proc.Read(l.c[1-side])
	if rival != 0 && proc.Read(l.t) == me+1 {
		proc.Write(l.cellsOf(rival-1).nudge, 1)
		if proc.AwaitAbortable(func(read func(memsim.Var) Word) bool {
			return read(myNudge) != 0 || read(myRelease) == rival
		}, myNudge, myRelease) {
			return l.abandon(proc, side)
		}
		if proc.Read(l.t) == me+1 {
			if proc.AwaitAbortable(func(read func(memsim.Var) Word) bool {
				return read(myRelease) == rival
			}, myRelease) {
				return l.abandon(proc, side)
			}
		}
	}

	if l.holder != -1 {
		proc.Fail("twoproc: %s mutual exclusion broken: p%d entered while p%d holds",
			l.name.String(), proc.ID(), l.holder)
	}
	l.holder = proc.ID()
	return true
}

// abandon withdraws an in-flight acquisition: Release's hand-off
// without ever having held the lock. A rival that observed our
// registration is waiting for a release stamp value-matched to it, and
// gets exactly that; a rival that missed it never waits on us, and the
// stamp (if any) lands in a dead round-keyed cell.
func (l *Mutex) abandon(proc *memsim.Proc, side int) bool {
	l.sideUser[side] = -1
	proc.Write(l.c[side], 0)
	rival := proc.Read(l.c[1-side])
	if rival != 0 {
		proc.Write(l.cellsOf(rival-1).release, l.user(proc.ID()).current+1)
	}
	return false
}

// Release performs the exit section for proc playing the given side.
// The rival to hand the lock to is identified from the other side's
// registration, which is stable for exactly as long as that rival
// waits.
func (l *Mutex) Release(proc *memsim.Proc, side int) {
	checkSide(side)
	if l.holder != proc.ID() {
		proc.Fail("twoproc: %s released by p%d, but holder is p%d", l.name.String(), proc.ID(), l.holder)
	}
	l.holder = -1
	l.sideUser[side] = -1
	proc.Write(l.c[side], 0)
	rival := proc.Read(l.c[1-side])
	if rival != 0 {
		// Stamp the release with our registration. If this read
		// overtook the rival side into a future round — one that
		// never waited on us — the stamp will not match what that
		// round observed, and the signal is inert.
		proc.Write(l.cellsOf(rival-1).release, l.user(proc.ID()).current+1)
	}
}

func checkSide(side int) {
	if side != 0 && side != 1 {
		panic(fmt.Sprintf("twoproc: side must be 0 or 1, got %d", side))
	}
}

// Family is a lazily allocated collection of Mutex instances indexed by
// Word keys. The G-DSM await transformation needs one instance per
// synchronization site J (e.g. per (queue, predecessor) pair); a Family
// materializes them on demand, deterministically within the accessing
// process's turn. Member key is named "family{key}".
type Family struct {
	m    *memsim.Machine
	name memsim.Prefix
	mus  memsim.Keyed[*Mutex]
}

// families is the storage Families are carved from.
var families = memsim.NewSlab[Family]()

// NewFamily returns an empty instance family in m's storage.
func NewFamily(m *memsim.Machine, name string) *Family {
	f := families.New(m)
	*f = Family{m: m, name: memsim.NamePrefix(nil, name)}
	return f
}

// At returns the instance for key, creating it on first use.
func (f *Family) At(key Word) *Mutex {
	if mu, ok := f.mus.Get(key); ok {
		return mu
	}
	mu := New(f.m, memsim.KeyedPrefix(&f.name, "", key))
	f.mus.Put(key, mu)
	return mu
}
