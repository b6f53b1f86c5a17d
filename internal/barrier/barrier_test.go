package barrier

import (
	"testing"

	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
)

// buildTokenRing reproduces the paper's usage pattern: Wait is invoked
// while holding an outer critical section (so at most one process
// waits at a time), but the barrier-protected region extends past the
// outer lock's release — exactly how T0's exit section works. The
// region increments a counter with an occupancy check; if two
// processes ever hold the token together, the counter is poisoned.
func buildTokenRing(model memsim.Model, nproc, rounds int) (*memsim.Machine, memsim.Var) {
	m := memsim.NewMachine(model, nproc)
	b := New(m, "bar")
	outer := m.NewVar("outer", memsim.HomeGlobal, 0)
	inside := m.NewVar("inside", memsim.HomeGlobal, 0)
	count := m.NewVar("count", memsim.HomeGlobal, 0)
	for i := 0; i < nproc; i++ {
		m.AddProc("p", func(p *memsim.Proc) {
			for r := 0; r < rounds; r++ {
				for { // outer test-and-set lock
					if p.RMW(outer, func(memsim.Word) memsim.Word { return 1 }) == 0 {
						break
					}
					p.AwaitEq(outer, 0)
				}
				b.Wait(p)
				p.Write(outer, 0) // leave the outer CS, keep the token
				if p.Read(inside) != 0 {
					p.RMW(count, func(memsim.Word) memsim.Word { return -1_000_000 })
				}
				p.Write(inside, 1)
				p.RMW(count, func(x memsim.Word) memsim.Word { return x + 1 })
				p.Write(inside, 0)
				b.Signal(p)
			}
		})
	}
	return m, count
}

func TestMutualExclusionOfTokenHolders(t *testing.T) {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for seed := int64(0); seed < 30; seed++ {
			m, count := buildTokenRing(model, 4, 6)
			res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(seed)})
			if err := res.Err(); err != nil {
				t.Fatalf("%v seed %d: %v", model, seed, err)
			}
			if got := m.Value(count); got != 24 {
				t.Fatalf("%v seed %d: count = %d, want 24 (token held concurrently?)", model, seed, got)
			}
		}
	}
}

// TestSingleWaiterContract: the paper's usage has at most one waiter
// at a time (Wait is called inside a critical section); here two
// processes alternate strictly, which satisfies the contract, and the
// barrier must pass the token between them.
func TestTokenHandoff(t *testing.T) {
	m := memsim.NewMachine(memsim.DSM, 2)
	b := New(m, "bar")
	turn := m.NewVar("turn", memsim.HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		i := i
		m.AddProc("p", func(p *memsim.Proc) {
			for r := 0; r < 5; r++ {
				p.AwaitEq(turn, memsim.Word(i))
				b.Wait(p)
				p.Write(turn, memsim.Word(1-i))
				b.Signal(p)
			}
		})
	}
	if err := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(3)}).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDSMBarrierSpinsLocally: under the single-waiter discipline, the
// DSM barrier's busy-waiting must be entirely on the waiter's own spin
// variable.
func TestDSMBarrierSpinsLocally(t *testing.T) {
	m := memsim.NewMachine(memsim.DSM, 2)
	b := New(m, "bar")
	turn := m.NewVar("turn", memsim.HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		i := i
		m.AddProc("p", func(p *memsim.Proc) {
			for r := 0; r < 5; r++ {
				p.AwaitEq(turn, memsim.Word(i))
				b.Wait(p)
				p.Write(turn, memsim.Word(1-i))
				b.Signal(p)
			}
		})
	}
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(7)})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// The turn-passing awaits above are on a shared var (test
	// scaffolding, remote for one side); assert instead that total
	// non-local spin reads are bounded by that scaffolding: the
	// barrier itself must not add unbounded remote spinning, so the
	// count stays small.
	if n := res.NonLocalSpinReads(); n > 20 {
		t.Fatalf("suspiciously many non-local spin reads: %d", n)
	}
}

func TestCCBarrierHasNoSite(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 1)
	if b := New(m, "bar"); b.waits != (localspin.Waits{}) {
		t.Fatal("CC barrier allocated a transformation site")
	}
}
