package memsim

import (
	"math/rand"
	"testing"
)

// TestAdversaryStarvesVictimOfUnfairLock: under the adversary, a raw
// test-and-set lock lets the non-victims monopolize the critical
// section; the victim is the last to finish every time.
func TestAdversaryStarvesVictimOfUnfairLock(t *testing.T) {
	const n, entries = 3, 5
	m := NewMachine(CC, n)
	lock := m.NewVar("lock", HomeGlobal, 0)
	finishOrder := make([]int, 0, n)
	for i := 0; i < n; i++ {
		m.AddProc("p", func(p *Proc) {
			for e := 0; e < entries; e++ {
				for {
					if p.RMW(lock, func(Word) Word { return 1 }) == 0 {
						break
					}
					p.AwaitEq(lock, 0)
				}
				p.EnterCS()
				p.ExitCS()
				p.Write(lock, 0)
			}
			finishOrder = append(finishOrder, p.ID())
		})
	}
	res := m.Run(RunConfig{Sched: NewAdversary(1, 0)})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := finishOrder[len(finishOrder)-1]; got != 0 {
		t.Fatalf("victim was not last to finish: order %v", finishOrder)
	}
}

// TestAdversaryCannotBlockSoleRunnable: the victim still runs when
// alone, so single-process workloads complete.
func TestAdversaryCannotBlockSoleRunnable(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("victim", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Write(v, Word(i))
		}
	})
	if err := m.Run(RunConfig{Sched: NewAdversary(2, 0)}).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAdversaryDeterministicPerSeed: replays identically.
func TestAdversaryDeterministicPerSeed(t *testing.T) {
	run := func() int64 {
		m := NewMachine(CC, 3)
		v := m.NewVar("v", HomeGlobal, 0)
		for i := 0; i < 3; i++ {
			m.AddProc("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.RMW(v, func(w Word) Word { return w + 1 })
				}
			})
		}
		return m.Run(RunConfig{Sched: NewAdversary(9, 1)}).Steps
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("adversary not deterministic: %d vs %d", a, b)
	}
}

// slicePick is the adversary's pick as it first was: collect the
// non-victims, then draw one.
func slicePick(a *Adversary, runnable []int) int {
	var others []int
	for _, id := range runnable {
		if id != a.victim {
			others = append(others, id)
		}
	}
	if len(others) == 0 {
		return a.victim
	}
	return others[a.rng.Intn(len(others))]
}

// TestAdversaryPickMatchesSlicePick: over random runnable sets, with
// and without the victim, and several seeds, Pick draws and returns
// exactly what collecting the non-victims into a slice would, and
// allocates nothing.
func TestAdversaryPickMatchesSlicePick(t *testing.T) {
	sets := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 8; seed++ {
		const n = 9
		victim := int(seed) % n
		got, want := NewAdversary(seed, victim), NewAdversary(seed, victim)
		for i := 0; i < 2000; i++ {
			var runnable []int
			for id := 0; id < n; id++ {
				if sets.Intn(3) > 0 {
					runnable = append(runnable, id)
				}
			}
			if g, w := got.Pick(int64(i), runnable, 0), slicePick(want, runnable); g != w {
				t.Fatalf("seed %d pick %d of %v: Pick = %d, want %d", seed, i, runnable, g, w)
			}
		}
	}
	a, runnable := NewAdversary(1, 2), []int{0, 1, 2, 3, 5, 8}
	if allocs := testing.AllocsPerRun(100, func() { a.Pick(0, runnable, 0) }); allocs != 0 {
		t.Fatalf("Pick allocates %.1f times", allocs)
	}
}
