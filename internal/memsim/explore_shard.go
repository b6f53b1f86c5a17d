package memsim

import (
	"sync"
	"sync/atomic"
)

// This file is the parallel half of the explorer: it executes one wave
// of schedules across a worker pool. Parallelism lives entirely inside
// a wave — workers share nothing but the frontier deque and the output
// slice, and every schedule's outcome lands at its own canonical index
// — so the merge in ExploreWaves never sees worker timing.

// claimBatch is how many frontier indices a worker claims per deque
// access: small enough that the tail of a wave still balances across
// workers, large enough that the deque lock stays cold relative to the
// cost of simulating a schedule.
const claimBatch = 32

// frontierDeque splits a wave's index space [0, n) into one contiguous
// shard per worker. A worker claims batches from the front of its own
// shard; when that drains it steals the back half of the fullest
// remaining shard. Shards stay pairwise disjoint, so every index runs
// exactly once — which worker runs it is timing-dependent, but the
// output is indexed, so the result is not.
type frontierDeque struct {
	mu     sync.Mutex
	shards [][2]int // per-worker [lo, hi)
}

func newFrontierDeque(n, workers int) *frontierDeque {
	d := &frontierDeque{shards: make([][2]int, workers)}
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + (n-lo)/(workers-w)
		d.shards[w] = [2]int{lo, hi}
		lo = hi
	}
	return d
}

// claim takes up to batch indices for worker w, stealing when w's own
// shard is empty. ok is false only when the whole frontier is drained.
func (d *frontierDeque) claim(w, batch int) (lo, hi int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.shards[w]
	if s[0] >= s[1] {
		best, bestSize := -1, 0
		for i := range d.shards {
			if size := d.shards[i][1] - d.shards[i][0]; size > bestSize {
				best, bestSize = i, size
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		victim := &d.shards[best]
		mid := victim[0] + bestSize/2
		*s = [2]int{mid, victim[1]}
		victim[1] = mid
	}
	lo = s[0]
	hi = lo + batch
	if hi > s[1] {
		hi = s[1]
	}
	s[0] = hi
	return lo, hi, true
}

// runWave executes one wave of schedules — sequentially, or sharded
// across workers — and returns the per-schedule outcomes indexed like
// wave. Each worker, the sequential path included, runs its schedules
// on a carrier set and chooser of its own; the set is retired when the
// wave is done.
func (e *Explorer) runWave(wave [][]Preemption, depth, runsBefore, maxPre, workers int) []ScheduleOutcome {
	out := make([]ScheduleOutcome, len(wave))
	var completed atomic.Int64
	tick := func() {
		if e.Progress == nil || e.ProgressEvery <= 0 {
			return
		}
		if c := completed.Add(1); c%int64(e.ProgressEvery) == 0 {
			e.Progress(ExploreProgress{Depth: depth, Frontier: len(wave), Runs: runsBefore + int(c)})
		}
	}
	if workers > len(wave) {
		workers = len(wave)
	}
	if workers <= 1 {
		var w exploreWorker
		defer w.cs.Close()
		for i := range wave {
			out[i] = e.runOne(&w, wave[i], maxPre)
			tick()
		}
		return out
	}

	deque := newFrontierDeque(len(wave), workers)
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ew exploreWorker
			defer ew.cs.Close()
			// A panic in Build or a simulated body (e.g. the
			// nondeterministic-build guard in chooser.Pick) must reach
			// the caller like it does on the sequential path, not kill
			// the process from an unrecoverable worker goroutine.
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				lo, hi, ok := deque.claim(w, claimBatch)
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					out[i] = e.runOne(&ew, wave[i], maxPre)
					tick()
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
