package nativelock

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Phi selects the fetch-and-φ primitive driving a Generic lock.
type Phi int

// The two infinite-rank primitives with native atomic equivalents.
const (
	// FetchIncrement drives the queues with atomic fetch-and-add.
	FetchIncrement Phi = iota
	// FetchStore drives the queues with atomic exchange, using the
	// paper's (process, parity) input schedule.
	FetchStore
)

// String implements fmt.Stringer.
func (p Phi) String() string {
	if p == FetchStore {
		return "fetch-and-store"
	}
	return "fetch-and-increment"
}

// Generic is a native adaptation of the paper's Algorithm G-CC: a
// mutual exclusion lock for n statically identified threads, built
// from a single fetch-and-φ primitive plus reads and writes. Two
// waiting queues with fetch-and-φ tail words are switched over time so
// that each tail sees at most 2n invocations between resets (the rank
// mechanism); the queue heads are arbitrated by a side-based Peterson
// lock.
//
// Because both supported primitives produce values in 1..2n between
// resets, the paper's unbounded Signal[j][Vartype] arrays become fixed
// arrays of 2n+1 padded flags.
//
// Each acquirer must present a stable identity in 0..n-1 (e.g. a
// worker index); use Locker to bind an identity into a sync.Locker.
type Generic struct {
	n   int
	phi Phi

	current atomic.Int32
	tail    [2]atomic.Int64
	// position counts the queue head's rank; only the lock holder
	// writes it.
	position [2]atomic.Int64
	signal   [2][]paddedFlag

	active  []paddedBool
	queueID []paddedInt32

	// Side-based Peterson lock arbitrating the two queue heads. Being
	// identity-free, it is robust to a side being handed from one
	// thread to the next mid-release.
	petersonFlag [2]paddedBool
	petersonTurn atomic.Int32

	st []genericState
}

type paddedBool struct {
	v atomic.Bool
	_ [cacheLinePad - 1]byte
}

type paddedInt32 struct {
	v atomic.Int32
	_ [cacheLinePad - 4]byte
}

// genericState is identity-private state (only its owner touches it).
type genericState struct {
	idx     int
	self    int64
	counter int
	_       [cacheLinePad - 24]byte
}

// NewGeneric returns a generic lock for n identities using the given
// primitive.
func NewGeneric(n int, phi Phi) *Generic {
	if n < 1 {
		panic(fmt.Sprintf("nativelock: need n >= 1, got %d", n))
	}
	return &Generic{
		n:       n,
		phi:     phi,
		signal:  [2][]paddedFlag{make([]paddedFlag, 2*n+1), make([]paddedFlag, 2*n+1)},
		active:  make([]paddedBool, n),
		queueID: make([]paddedInt32, n),
		st:      make([]genericState, n),
	}
}

// invoke performs the fetch-and-φ on a tail word for the identity,
// returning the old and new values per the paper's convention.
func (l *Generic) invoke(tail *atomic.Int64, id int) (old, cur int64) {
	switch l.phi {
	case FetchStore:
		st := &l.st[id]
		enc := int64(2*id+st.counter%2) + 1
		st.counter++
		return tail.Swap(enc), enc
	default:
		cur = tail.Add(1)
		return cur - 1, cur
	}
}

// LockID performs the entry section for the given identity.
func (l *Generic) LockID(id int) {
	st := &l.st[id]
	l.queueID[id].v.Store(0)               // 1: ⊥
	l.active[id].v.Store(true)             // 2
	idx := int(l.current.Load())           // 3
	l.queueID[id].v.Store(int32(idx) + 1)  // 4
	old, cur := l.invoke(&l.tail[idx], id) // 5–7
	if old != 0 {                          // 8
		s := &l.signal[idx][old]
		for i := 0; s.flag.Load() == 0; i++ { // 9
			spinWait(i)
		}
		s.flag.Store(0) // 10
	}
	l.acquire2(idx) // 11
	st.idx, st.self = idx, cur
}

// UnlockID performs the exit section for the given identity.
func (l *Generic) UnlockID(id int) {
	st := &l.st[id]
	idx := st.idx
	pos := l.position[idx].Load()  // 12
	l.position[idx].Store(pos + 1) // 13
	l.release2(idx)                // 14
	switch {
	case pos < int64(l.n) && pos != int64(id) && l.active[pos].v.Load(): // 15
		q := int(pos)                                                                    // 16
		for i := 0; l.active[q].v.Load() && l.queueID[q].v.Load() != int32(idx)+1; i++ { // 17–18
			spinWait(i)
		}
	case pos == int64(l.n): // 19: exchange the queues
		old := 1 - idx
		if last := l.tail[old].Load(); last != 0 {
			l.signal[old][last].flag.Store(0) // stale-signal completion
		}
		l.tail[old].Store(0)        // 20
		l.position[old].Store(0)    // 21
		l.current.Store(int32(old)) // 22
	}
	l.signal[idx][st.self].flag.Store(1) // 23
	l.active[id].v.Store(false)          // 24
}

// acquire2 is the entry section of the side-based Peterson lock.
func (l *Generic) acquire2(side int) {
	other := 1 - side
	l.petersonFlag[side].v.Store(true)
	l.petersonTurn.Store(int32(other))
	for i := 0; l.petersonFlag[other].v.Load() && l.petersonTurn.Load() == int32(other); i++ {
		spinWait(i)
	}
}

// release2 is the exit section of the side-based Peterson lock.
func (l *Generic) release2(side int) {
	l.petersonFlag[side].v.Store(false)
}

// Locker binds an identity into a sync.Locker.
func (l *Generic) Locker(id int) sync.Locker {
	if id < 0 || id >= l.n {
		panic(fmt.Sprintf("nativelock: identity %d out of range 0..%d", id, l.n-1))
	}
	return genericLocker{l: l, id: id}
}

type genericLocker struct {
	l  *Generic
	id int
}

// Lock implements sync.Locker.
func (g genericLocker) Lock() { g.l.LockID(g.id) }

// Unlock implements sync.Locker.
func (g genericLocker) Unlock() { g.l.UnlockID(g.id) }
