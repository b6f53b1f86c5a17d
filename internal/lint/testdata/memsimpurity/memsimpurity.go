// Package memsimpurity is the analysistest corpus for the
// memsimpurity analyzer: an "algorithm package" that commits every
// banned escape from the simulated memory.
package memsimpurity

import (
	"math/rand" // want "algorithm package imports \"math/rand\""
	"sync"      // want "algorithm package imports \"sync\""
	"time"      // want "algorithm package imports \"time\""

	"fetchphi/internal/memsim"
)

// mu is real synchronization living outside memsim: invisible to the
// RMR accounting.
var mu sync.Mutex // want "package-level variable mu"

// hits is mutable package-level state shared behind the simulator's
// back.
var hits, misses int // want "package-level variable hits" "package-level variable misses"

// _ assertions are allowed (no diagnostic).
var _ = memsim.Word(0)

// counters is a storage handle: what it hands out lives in each
// machine's storage, not in the package, so it is allowed.
var counters = memsim.NewSlab[int]()

// lockedIncrement syncs with a real mutex and sleeps on the real
// clock.
func lockedIncrement() {
	mu.Lock()
	hits++
	mu.Unlock()
	time.Sleep(time.Millisecond)
}

// jitter draws real randomness.
func jitter() int { return rand.New(rand.NewSource(1)).Intn(3) }

// spawn runs part of the algorithm on a real goroutine, outside the
// engine's schedule.
func spawn(p *memsim.Proc, v memsim.Var, ch chan int) {
	go func() { // want "goroutine in algorithm package"
		misses++
	}()
	ch <- p.ID() // want "channel send in algorithm package"
	select {     // want "select in algorithm package"
	case <-ch:
	default:
	}
	p.Write(v, 1)
}
