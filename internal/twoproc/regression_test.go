package twoproc

import (
	"testing"

	"fetchphi/internal/memsim"
)

// TestRegressionFutureRoundRelease replays the exact 3-preemption
// schedule that broke an earlier implementation: an exit section,
// delayed between clearing its own registration and reading the
// rival's, observed a FUTURE round's registration and falsely released
// it. Value-matched release stamps make the stray signal inert.
func TestRegressionFutureRoundRelease(t *testing.T) {
	e := &memsim.Explorer{
		Build:          buildPair(memsim.CC, 2),
		MaxPreemptions: 3,
		MaxSteps:       20_000,
	}
	res := e.ReplaySchedule([]memsim.Preemption{{Step: 7, Proc: 1}, {Step: 16, Proc: 0}, {Step: 32, Proc: 0}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestExhaustiveSignalHandoff model-checks the usage pattern of the
// Sec. 3 transformation sites and the T0/T barrier, which broke the
// classic single-cell algorithm: a side-0 user (the "waiter") hands a
// token to a side-1 user (the "signaler") whose successor may re-enter
// side 1 while the previous signaler is still inside Release.
func TestExhaustiveSignalHandoff(t *testing.T) {
	build := func() *memsim.Machine {
		m := memsim.NewMachine(memsim.CC, 3)
		mu := New(m, memsim.NamePrefix(nil, "L"))
		flag := m.NewVar("flag", memsim.HomeGlobal, 1)
		// p0 plays the perpetual waiter (side 0): take the token
		// twice.
		m.AddProc("waiter", func(p *memsim.Proc) {
			for i := 0; i < 2; i++ {
				mu.Acquire(p, 0)
				p.EnterCS()
				p.ExitCS()
				ok := p.Read(flag) != 0
				mu.Release(p, 0)
				if ok {
					p.Write(flag, 0)
				}
			}
		})
		// p1 and p2 play successive signalers (side 1), the second
		// starting as soon as the first's release has begun.
		handoff := m.NewVar("handoff", memsim.HomeGlobal, 0)
		m.AddProc("sig1", func(p *memsim.Proc) {
			mu.Acquire(p, 1)
			p.EnterCS()
			p.ExitCS()
			p.Write(flag, 1)
			mu.Release(p, 1)
			p.Write(handoff, 1)
		})
		m.AddProc("sig2", func(p *memsim.Proc) {
			p.AwaitTrue(handoff)
			mu.Acquire(p, 1)
			p.EnterCS()
			p.ExitCS()
			mu.Release(p, 1)
		})
		return m
	}
	e := &memsim.Explorer{Build: build, MaxPreemptions: 3, MaxSteps: 20_000, MaxRuns: 3_000_000}
	res := e.Run()
	if res.Err != nil {
		t.Fatalf("%v (schedule %v, run %d)", res.Err, res.FailingSchedule, res.Runs)
	}
	if !res.Exhausted {
		t.Errorf("not exhausted in %d runs", res.Runs)
	}
	t.Logf("%d schedules explored", res.Runs)
}
