package stress

import (
	"strings"
	"sync"

	"fetchphi/internal/nativelock"
)

// CS runs one critical section for the worker identity id: acquire,
// run body, release. The wrapper shape absorbs the zoo's different
// token protocols (slot tokens, queue nodes, static identities) behind
// one uniform runner.
type CS func(id int, body func())

// Case is one stressable lock. Make builds a fresh lock instance sized
// for exactly `workers` concurrent acquirers and returns its
// critical-section wrapper; it must be called once per run so sweeping
// worker counts never reuses an array lock sized for a smaller sweep
// point (the corruption the old cmd/lockstress harness allowed).
type Case struct {
	Name string
	Make func(workers int) CS
}

// Cases returns the spin-lock zoo, classic locks first, then the queue
// locks, then the paper's constructions. Every Make builds a fresh
// instance, so cases carry no state between runs.
func Cases() []Case {
	return []Case{
		{"mutex", func(int) CS {
			mu := new(sync.Mutex)
			return func(_ int, body func()) { mu.Lock(); body(); mu.Unlock() }
		}},
		{"tas", func(int) CS {
			l := new(nativelock.TASLock)
			return func(_ int, body func()) { l.Lock(); body(); l.Unlock() }
		}},
		{"ttas", func(int) CS {
			l := new(nativelock.TTASLock)
			return func(_ int, body func()) { l.Lock(); body(); l.Unlock() }
		}},
		{"ticket", func(int) CS {
			l := new(nativelock.TicketLock)
			return func(_ int, body func()) { l.Lock(); body(); l.Unlock() }
		}},
		{"anderson", func(workers int) CS {
			l := nativelock.NewAndersonLock(workers)
			return func(_ int, body func()) { s := l.Lock(); body(); l.UnlockSlot(s) }
		}},
		{"clh", func(int) CS {
			l := nativelock.NewCLHLock()
			return func(_ int, body func()) { t := l.Lock(); body(); l.Unlock(t) }
		}},
		{"mcs", func(int) CS {
			l := nativelock.NewMCSLock()
			return func(_ int, body func()) { n := l.Lock(); body(); l.Unlock(n) }
		}},
		{"gt", func(int) CS {
			l := nativelock.NewGraunkeThakkarLock()
			return func(_ int, body func()) { t := l.Lock(); body(); l.Unlock(t) }
		}},
		{"generic-inc", func(workers int) CS {
			l := nativelock.NewGeneric(workers, nativelock.FetchIncrement)
			return func(id int, body func()) { l.LockID(id); body(); l.UnlockID(id) }
		}},
		{"generic-swap", func(workers int) CS {
			l := nativelock.NewGeneric(workers, nativelock.FetchStore)
			return func(id int, body func()) { l.LockID(id); body(); l.UnlockID(id) }
		}},
		{"peterson-tree", func(workers int) CS {
			l := nativelock.NewTreeLock(workers)
			return func(id int, body func()) { l.LockID(id); body(); l.UnlockID(id) }
		}},
	}
}

// Names returns the zoo's lock names in presentation order.
func Names() []string {
	cs := Cases()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// Find returns the named case (case-insensitive).
func Find(name string) (Case, bool) {
	for _, c := range Cases() {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return Case{}, false
}
