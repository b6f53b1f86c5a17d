// Package nativelock provides real spin-lock implementations backed by
// sync/atomic, usable as sync.Locker: the classic locks the paper
// discusses (test-and-set, ticket, T. Anderson's array lock, Graunke &
// Thakkar's lock, CLH, MCS) plus a native adaptation of the paper's
// generic two-queue algorithm (see Generic).
//
// These run on real hardware, where the RMR measure is invisible; they
// are benchmarked by wall-clock throughput (experiment E9). On a
// cache-coherent machine the queue locks spin on distinct cache lines,
// which is exactly the paper's CC local-spin story.
package nativelock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// cacheLinePad separates hot variables to avoid false sharing.
const cacheLinePad = 64

// spinWait yields the processor occasionally while busy-waiting, so
// spinners do not starve the lock holder when goroutines outnumber
// cores.
func spinWait(i int) {
	if i%64 == 63 {
		runtime.Gosched()
	}
}

// TASLock is a test-and-set spin lock on a single word.
type TASLock struct {
	state atomic.Int32
}

// Lock implements sync.Locker.
func (l *TASLock) Lock() {
	for i := 0; !l.state.CompareAndSwap(0, 1); i++ {
		spinWait(i)
	}
}

// Unlock implements sync.Locker.
func (l *TASLock) Unlock() { l.state.Store(0) }

// TTASLock is a test-and-test-and-set lock with exponential backoff:
// waiters read the (shared, cached) word until it looks free before
// attempting the atomic swap.
type TTASLock struct {
	state atomic.Int32
}

// Lock implements sync.Locker.
func (l *TTASLock) Lock() {
	backoff := 1
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return
		}
		for i := 0; i < backoff; i++ {
			spinWait(i)
		}
		if backoff < 1024 {
			backoff *= 2
		}
	}
}

// Unlock implements sync.Locker.
func (l *TTASLock) Unlock() { l.state.Store(0) }

// TicketLock serializes acquirers with a fetch-and-increment ticket
// dispenser.
type TicketLock struct {
	next  atomic.Uint64
	_     [cacheLinePad]byte
	owner atomic.Uint64
}

// Lock implements sync.Locker.
func (l *TicketLock) Lock() {
	t := l.next.Add(1) - 1
	for i := 0; l.owner.Load() != t; i++ {
		spinWait(i)
	}
}

// Unlock implements sync.Locker.
func (l *TicketLock) Unlock() { l.owner.Add(1) }

// AndersonLock is T. Anderson's array-based queue lock: each waiter
// spins on its own padded slot of a circular flag array. The array
// must be sized for the maximum number of simultaneous waiters.
type AndersonLock struct {
	tail  atomic.Uint64
	slots []paddedFlag
	mine  sync.Map // goroutine-independent: ticket saved per Lock, keyed by slot
}

type paddedFlag struct {
	flag atomic.Uint32
	_    [cacheLinePad - 4]byte
}

// NewAndersonLock returns an array lock admitting up to maxWaiters
// concurrent acquirers.
func NewAndersonLock(maxWaiters int) *AndersonLock {
	l := &AndersonLock{slots: make([]paddedFlag, maxWaiters)}
	l.slots[0].flag.Store(1)
	return l
}

// Lock acquires the lock and returns a slot token that must be passed
// to UnlockSlot. (The classic algorithm is per-processor; in Go the
// token carries the slot between Lock and Unlock.)
func (l *AndersonLock) Lock() int {
	slot := int(l.tail.Add(1)-1) % len(l.slots)
	for i := 0; l.slots[slot].flag.Load() == 0; i++ {
		spinWait(i)
	}
	l.slots[slot].flag.Store(0)
	return slot
}

// UnlockSlot releases the lock acquired with the given slot token.
func (l *AndersonLock) UnlockSlot(slot int) {
	l.slots[(slot+1)%len(l.slots)].flag.Store(1)
}

// CLHLock is the Craig / Landin-Hagersten queue lock: each acquirer
// enqueues a fresh node and spins on its predecessor's node.
type CLHLock struct {
	tail atomic.Pointer[clhNode]
	// free recycles nodes to keep the steady state allocation-free.
	free sync.Pool
}

type clhNode struct {
	locked atomic.Bool
	_      [cacheLinePad - 1]byte
}

// NewCLHLock returns an initialized CLH lock.
func NewCLHLock() *CLHLock {
	l := &CLHLock{free: sync.Pool{New: func() any { return new(clhNode) }}}
	l.tail.Store(new(clhNode)) // initial dummy, unlocked
	return l
}

// Lock acquires the lock, returning a token for Unlock.
func (l *CLHLock) Lock() *CLHToken {
	node := l.free.Get().(*clhNode)
	node.locked.Store(true)
	pred := l.tail.Swap(node)
	for i := 0; pred.locked.Load(); i++ {
		spinWait(i)
	}
	return &CLHToken{node: node, pred: pred}
}

// CLHToken carries a CLH acquisition's nodes between Lock and Unlock.
type CLHToken struct{ node, pred *clhNode }

// Unlock releases the lock acquired with the token.
func (l *CLHLock) Unlock(tok *CLHToken) {
	tok.node.locked.Store(false)
	// The predecessor's node is now unobserved and may be recycled.
	l.free.Put(tok.pred)
}

// MCSLock is the Mellor-Crummey & Scott queue lock (fetch-and-store to
// enqueue, compare-and-swap to dequeue): each waiter spins on its own
// node, giving local spinning on both CC and DSM machines — the
// starvation-free variant the paper credits with O(1) RMR on both
// models.
type MCSLock struct {
	tail atomic.Pointer[MCSNode]
	free sync.Pool
}

// MCSNode is one waiter's queue node.
type MCSNode struct {
	next   atomic.Pointer[MCSNode]
	locked atomic.Bool
	_      [cacheLinePad - 9]byte
}

// NewMCSLock returns an initialized MCS lock.
func NewMCSLock() *MCSLock {
	return &MCSLock{free: sync.Pool{New: func() any { return new(MCSNode) }}}
}

// Lock acquires the lock, returning the node to pass to Unlock.
func (l *MCSLock) Lock() *MCSNode {
	node := l.free.Get().(*MCSNode)
	node.next.Store(nil)
	node.locked.Store(true)
	pred := l.tail.Swap(node)
	if pred != nil {
		pred.next.Store(node)
		for i := 0; node.locked.Load(); i++ {
			spinWait(i)
		}
	}
	return node
}

// Unlock releases the lock acquired with node.
func (l *MCSLock) Unlock(node *MCSNode) {
	next := node.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(node, nil) {
			l.free.Put(node)
			return
		}
		for i := 0; ; i++ {
			if next = node.next.Load(); next != nil {
				break
			}
			spinWait(i)
		}
	}
	next.locked.Store(false)
	l.free.Put(node)
}

// GraunkeThakkarLock is Graunke & Thakkar's queue lock: the tail holds
// (pointer to predecessor's flag, the flag's value at enqueue); a
// waiter spins until the predecessor's flag flips.
type GraunkeThakkarLock struct {
	tail atomic.Pointer[gtTag]
	free sync.Pool
}

type gtTag struct {
	flag *paddedFlag
	when uint32
}

// NewGraunkeThakkarLock returns an initialized lock.
func NewGraunkeThakkarLock() *GraunkeThakkarLock {
	l := &GraunkeThakkarLock{free: sync.Pool{New: func() any { return new(paddedFlag) }}}
	dummy := new(paddedFlag)
	dummy.flag.Store(1)
	l.tail.Store(&gtTag{flag: dummy, when: 0}) // flag ≠ when: lock free
	return l
}

// GTToken carries an acquisition's flag between Lock and Unlock.
type GTToken struct {
	mine *paddedFlag
	prev *paddedFlag
}

// Lock acquires the lock.
func (l *GraunkeThakkarLock) Lock() *GTToken {
	mine := l.free.Get().(*paddedFlag)
	old := l.tail.Swap(&gtTag{flag: mine, when: mine.flag.Load()})
	for i := 0; old.flag.flag.Load() == old.when; i++ {
		spinWait(i)
	}
	return &GTToken{mine: mine, prev: old.flag}
}

// Unlock releases the lock.
func (l *GraunkeThakkarLock) Unlock(tok *GTToken) {
	tok.mine.flag.Add(1) // flip parity: releases the successor
	// The predecessor's flag is no longer observed by anyone.
	l.free.Put(tok.prev)
}

// Compile-time interface compliance for the sync.Locker-shaped locks.
var (
	_ sync.Locker = (*TASLock)(nil)
	_ sync.Locker = (*TTASLock)(nil)
	_ sync.Locker = (*TicketLock)(nil)
)
