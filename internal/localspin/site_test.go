package localspin

import (
	"testing"

	"fetchphi/internal/memsim"
)

// buildHandshake wires one waiter and one signaler through a site: the
// signaler establishes a flag; the waiter waits for it, then checks a
// payload written strictly before the establishment.
func buildHandshake(model memsim.Model, preEstablishOps int) *memsim.Machine {
	m := memsim.NewMachine(model, 2)
	sites := NewSiteSet(m, memsim.NamePrefix(nil, "S"))
	flag := m.NewVar("flag", memsim.HomeGlobal, 0)
	payload := m.NewVar("payload", memsim.HomeGlobal, 0)
	m.AddProc("waiter", func(p *memsim.Proc) {
		sites.At(0).Wait(p, func(read func(memsim.Var) Word) bool {
			return read(flag) != 0
		})
		if p.Read(payload) != 42 {
			p.Fail("payload not visible after wait")
		}
	})
	m.AddProc("signaler", func(p *memsim.Proc) {
		for i := 0; i < preEstablishOps; i++ {
			p.Write(payload, 0) // stretch the pre-establishment window
		}
		p.Write(payload, 42)
		sites.At(0).Signal(p, func() { p.Write(flag, 1) })
	})
	return m
}

// TestTransformationExhaustive model-checks the paper's Sec. 3 code
// fragments (lines a–h vs i–m) directly: the wait must terminate and
// observe the establishment, on every schedule, on both models.
func TestTransformationExhaustive(t *testing.T) {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		e := &memsim.Explorer{
			Build:          func() *memsim.Machine { return buildHandshake(model, 2) },
			MaxPreemptions: 3,
			MaxSteps:       20_000,
			MaxRuns:        2_000_000,
		}
		res := e.Run()
		if res.Err != nil {
			t.Fatalf("%v: %v (schedule %v)", model, res.Err, res.FailingSchedule)
		}
		if !res.Exhausted {
			t.Errorf("%v: not exhausted in %d runs", model, res.Runs)
		}
	}
}

// TestWaiterSpinsLocallyOnDSM is the transformation's whole purpose.
func TestWaiterSpinsLocallyOnDSM(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		m := buildHandshake(memsim.DSM, 5)
		res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(seed)})
		if err := res.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := res.NonLocalSpinReads(); n != 0 {
			t.Fatalf("seed %d: %d non-local spin reads", seed, n)
		}
	}
}

// TestFastPathNoBlocking: when the condition already holds, Wait must
// not block at all.
func TestFastPathNoBlocking(t *testing.T) {
	m := memsim.NewMachine(memsim.DSM, 1)
	sites := NewSiteSet(m, memsim.NamePrefix(nil, "S"))
	flag := m.NewVar("flag", memsim.HomeGlobal, 1)
	m.AddProc("p", func(p *memsim.Proc) {
		sites.At(3).Wait(p, func(read func(memsim.Var) Word) bool {
			return read(flag) != 0
		})
	})
	res := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].AwaitBlocks != 0 {
		t.Fatalf("fast path blocked %d times", res.Procs[0].AwaitBlocks)
	}
}

// TestSiteReuseAcrossRounds exercises one site through many
// wait/signal rounds with roles alternating between processes.
func TestSiteReuseAcrossRounds(t *testing.T) {
	const rounds = 20
	for seed := int64(0); seed < 20; seed++ {
		m := memsim.NewMachine(memsim.DSM, 2)
		sites := NewSiteSet(m, memsim.NamePrefix(nil, "S"))
		flag := m.NewVar("flag", memsim.HomeGlobal, 0)
		// Ping-pong: p0 waits for odd values on site 0, p1 waits for
		// even values on site 1 — one dedicated waiter per site, as
		// the transformation's contract requires, reused across many
		// rounds.
		m.AddProc("p0", func(p *memsim.Proc) {
			for r := 0; r < rounds; r++ {
				want := Word(2*r + 1)
				sites.At(0).Wait(p, func(read func(memsim.Var) Word) bool {
					return read(flag) >= want
				})
				sites.At(1).Signal(p, func() { p.Write(flag, want+1) })
			}
		})
		m.AddProc("p1", func(p *memsim.Proc) {
			for r := 0; r < rounds; r++ {
				sites.At(0).Signal(p, func() { p.Write(flag, Word(2*r+1)) })
				want := Word(2*r + 2)
				sites.At(1).Wait(p, func(read func(memsim.Var) Word) bool {
					return read(flag) >= want
				})
			}
		})
		res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(seed)})
		if err := res.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.NonLocalSpinReads() != 0 {
			t.Fatalf("seed %d: non-local spins", seed)
		}
	}
}

// TestVisitMutualExclusionWithSignal: Visit bodies and Signal
// establishments on one site never interleave.
func TestVisitMutualExclusionWithSignal(t *testing.T) {
	build := func() *memsim.Machine {
		m := memsim.NewMachine(memsim.CC, 2)
		sites := NewSiteSet(m, memsim.NamePrefix(nil, "S"))
		inside := m.NewVar("inside", memsim.HomeGlobal, 0)
		m.AddProc("visitor", func(p *memsim.Proc) {
			for i := 0; i < 3; i++ {
				sites.At(0).Visit(p, func() {
					if p.Read(inside) != 0 {
						p.Fail("visit overlapped a signal")
					}
					p.Write(inside, 1)
					p.Write(inside, 0)
				})
			}
		})
		m.AddProc("signaler", func(p *memsim.Proc) {
			for i := 0; i < 3; i++ {
				sites.At(0).Signal(p, func() {
					if p.Read(inside) != 0 {
						p.Fail("signal overlapped a visit")
					}
					p.Write(inside, 1)
					p.Write(inside, 0)
				})
			}
		})
		return m
	}
	e := &memsim.Explorer{Build: build, MaxPreemptions: 2, MaxSteps: 20_000, MaxRuns: 1_000_000}
	res := e.Run()
	if res.Err != nil {
		t.Fatalf("%v (schedule %v)", res.Err, res.FailingSchedule)
	}
	if !res.Exhausted {
		t.Errorf("not exhausted in %d runs", res.Runs)
	}
}

// TestDistinctSitesIndependent: waiting on one site is unaffected by
// traffic on another.
func TestDistinctSitesIndependent(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 2)
	sites := NewSiteSet(m, memsim.NamePrefix(nil, "S"))
	flagA := m.NewVar("a", memsim.HomeGlobal, 0)
	m.AddProc("waiter", func(p *memsim.Proc) {
		sites.At(1).Wait(p, func(read func(memsim.Var) Word) bool { return read(flagA) != 0 })
	})
	m.AddProc("noisy", func(p *memsim.Proc) {
		for i := 0; i < 5; i++ {
			sites.At(2).Signal(p, func() {}) // unrelated site traffic
		}
		sites.At(1).Signal(p, func() { p.Write(flagA, 1) })
	})
	if err := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(4)}).Err(); err != nil {
		t.Fatal(err)
	}
}
