package memsim

import "math/rand"

// Scheduler decides which runnable process performs the next operation.
// Implementations must be deterministic functions of their own state
// and the arguments, so runs are reproducible.
type Scheduler interface {
	// Pick returns an element of runnable (which is non-empty and
	// sorted ascending). last is the id of the previously scheduled
	// process, or -1 at the first step. runnable is owned by the engine
	// and reused across steps: Pick must not modify it, and must copy
	// it to keep it past the call.
	Pick(step int64, runnable []int, last int) int
}

// Random schedules uniformly at random from a seeded source. Different
// seeds give independent interleavings; the same seed replays the same
// run.
type Random struct{ rng *rand.Rand }

// NewRandom returns a Random scheduler with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Reseed restarts r at seed: it then picks exactly what NewRandom(seed)
// would, without allocating once r holds a source. The zero Random is
// ready for Reseed, so a caller running many seeds keeps one Random
// instead of building a source per seed.
func (r *Random) Reseed(seed int64) {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
		return
	}
	r.rng.Seed(seed)
}

// Pick implements Scheduler.
func (r *Random) Pick(_ int64, runnable []int, _ int) int {
	return runnable[r.rng.Intn(len(runnable))]
}

// RoundRobin rotates through the runnable processes, resuming from the
// successor of the previously scheduled id. It maximizes interleaving
// churn while staying deterministic.
type RoundRobin struct{}

// Pick implements Scheduler.
func (RoundRobin) Pick(_ int64, runnable []int, last int) int {
	for _, id := range runnable {
		if id > last {
			return id
		}
	}
	return runnable[0]
}

// Sticky keeps running the same process for a fixed quantum of steps
// before rotating, emulating coarse-grained preemption. Quantum 1
// behaves like RoundRobin.
type Sticky struct {
	// Quantum is the number of consecutive steps granted to one
	// process while it stays runnable.
	Quantum int64

	sliceLeft int64
}

// Pick implements Scheduler.
func (s *Sticky) Pick(_ int64, runnable []int, last int) int {
	if s.sliceLeft > 0 && last >= 0 {
		for _, id := range runnable {
			if id == last {
				s.sliceLeft--
				return id
			}
		}
	}
	s.sliceLeft = s.Quantum - 1
	return RoundRobin{}.Pick(0, runnable, last)
}

// Compile-time interface compliance checks.
var (
	_ Scheduler = (*Random)(nil)
	_ Scheduler = RoundRobin{}
	_ Scheduler = (*Sticky)(nil)
)
