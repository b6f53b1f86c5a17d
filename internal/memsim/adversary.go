package memsim

import "math/rand"

// Adversary is a scheduler that starves one victim process: whenever
// any other process is runnable, the victim does not run. Among the
// non-victims it schedules randomly. The victim advances only when it
// is the sole runnable process — for a starvation-free algorithm it
// must still complete; for unfair algorithms this scheduler drives the
// bypass metric toward its true worst case far faster than uniform
// random scheduling.
type Adversary struct {
	victim int
	rng    *rand.Rand
}

// NewAdversary returns an adversary scheduler against the given victim
// process id.
func NewAdversary(seed int64, victim int) *Adversary {
	return &Adversary{victim: victim, rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler. It draws one index among the non-victims
// and walks to that one, so a pick allocates nothing.
func (a *Adversary) Pick(_ int64, runnable []int, _ int) int {
	others := 0
	for _, id := range runnable {
		if id != a.victim {
			others++
		}
	}
	if others == 0 {
		return a.victim
	}
	k := a.rng.Intn(others)
	for _, id := range runnable {
		if id == a.victim {
			continue
		}
		if k == 0 {
			return id
		}
		k--
	}
	panic("memsim: adversary lost count of the non-victims")
}

// Compile-time interface compliance check.
var _ Scheduler = (*Adversary)(nil)
