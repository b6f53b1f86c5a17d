package nativelock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// starve runs `workers` goroutines that hammer the given
// critical-section wrapper and stops once every worker has completed
// at least one acquisition — the starvation smoke for the FIFO locks
// (ticket, CLH, MCS, Graunke-Thakkar). Workers that have already
// acquired keep hammering until the last one gets through, so the
// straggler's first acquisition happens under full contention; a
// starvation-prone lock hangs here and trips the watchdog instead of
// passing by luck.
func starve(t *testing.T, workers int, cs func(id int, body func())) {
	t.Helper()
	var (
		done    atomic.Bool
		served  atomic.Int64 // workers with ≥1 acquisition
		total   atomic.Int64
		perWork = make([]atomic.Int64, workers)
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				cs(w, func() {
					total.Add(1)
					if perWork[w].Add(1) == 1 && served.Add(1) == int64(workers) {
						done.Store(true)
					}
				})
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		done.Store(true)
		t.Fatalf("starvation: only %d/%d workers acquired within 30s (%d total acquisitions)",
			served.Load(), workers, total.Load())
	}
	for w := 0; w < workers; w++ {
		if perWork[w].Load() == 0 {
			t.Errorf("worker %d starved: 0 of %d acquisitions", w, total.Load())
		}
	}
}

const starveWorkers = 8

func TestTicketLockNoStarvation(t *testing.T) {
	var l TicketLock
	starve(t, starveWorkers, func(_ int, body func()) {
		l.Lock()
		body()
		l.Unlock()
	})
}

func TestCLHLockNoStarvation(t *testing.T) {
	l := NewCLHLock()
	starve(t, starveWorkers, func(_ int, body func()) {
		tok := l.Lock()
		body()
		l.Unlock(tok)
	})
}

func TestMCSLockNoStarvation(t *testing.T) {
	l := NewMCSLock()
	starve(t, starveWorkers, func(_ int, body func()) {
		node := l.Lock()
		body()
		l.Unlock(node)
	})
}

func TestGraunkeThakkarLockNoStarvation(t *testing.T) {
	l := NewGraunkeThakkarLock()
	starve(t, starveWorkers, func(_ int, body func()) {
		tok := l.Lock()
		body()
		l.Unlock(tok)
	})
}
