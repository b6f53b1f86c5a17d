package localspin

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"fetchphi/internal/memsim"
)

// buildHandshake wires one waiter and one signaler through a site: the
// signaler establishes a flag; the waiter waits for it, then checks a
// payload written strictly before the establishment.
func buildHandshake(model memsim.Model, preEstablishOps int) *memsim.Machine {
	m := memsim.NewMachine(model, 2)
	w := New(m, memsim.NamePrefix(nil, "S"), true)
	flag := m.NewVar("flag", memsim.HomeGlobal, 0)
	payload := m.NewVar("payload", memsim.HomeGlobal, 0)
	m.AddProc("waiter", func(p *memsim.Proc) {
		w.WaitTrue(p, 0, flag)
		if p.Read(payload) != 42 {
			p.Fail("payload not visible after wait")
		}
	})
	m.AddProc("signaler", func(p *memsim.Proc) {
		for i := 0; i < preEstablishOps; i++ {
			p.Write(payload, 0) // stretch the pre-establishment window
		}
		p.Write(payload, 42)
		w.Signal(p, 0, func() { p.Write(flag, 1) })
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

// TestFastPathNoBlocking: when the condition already holds, a site
// wait must not block at all.
func TestFastPathNoBlocking(t *testing.T) {
	m := memsim.NewMachine(memsim.DSM, 1)
	w := New(m, memsim.NamePrefix(nil, "S"), true)
	flag := m.NewVar("flag", memsim.HomeGlobal, 1)
	m.AddProc("p", func(p *memsim.Proc) { w.WaitTrue(p, 3, flag) })
	res := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].AwaitBlocks != 0 {
		t.Fatalf("fast path blocked %d times", res.Procs[0].AwaitBlocks)
	}
}

// TestSiteReuseAcrossRounds exercises two sites through many
// wait/signal rounds with roles alternating between processes.
func TestSiteReuseAcrossRounds(t *testing.T) {
	const rounds = 20
	for seed := int64(0); seed < 20; seed++ {
		m := memsim.NewMachine(memsim.DSM, 2)
		w := New(m, memsim.NamePrefix(nil, "S"), true)
		ping := m.NewVar("ping", memsim.HomeGlobal, 0)
		pong := m.NewVar("pong", memsim.HomeGlobal, 0)
		// Ping-pong: p0 waits for ping on site 0, p1 for pong on site
		// 1 — one dedicated waiter per site, as the transformation's
		// contract requires, reused across many rounds. Each waiter
		// clears its flag before it establishes the other's, so a flag
		// stays true until its await terminates.
		m.AddProc("p0", func(p *memsim.Proc) {
			for r := 0; r < rounds; r++ {
				w.WaitTrue(p, 0, ping)
				p.Write(ping, 0)
				w.Signal(p, 1, func() { p.Write(pong, 1) })
			}
		})
		m.AddProc("p1", func(p *memsim.Proc) {
			for r := 0; r < rounds; r++ {
				w.Signal(p, 0, func() { p.Write(ping, 1) })
				w.WaitTrue(p, 1, pong)
				p.Write(pong, 0)
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
// establishments at one site key never interleave.
func TestVisitMutualExclusionWithSignal(t *testing.T) {
	build := func() *memsim.Machine {
		m := memsim.NewMachine(memsim.CC, 2)
		w := New(m, memsim.NamePrefix(nil, "S"), true)
		inside := m.NewVar("inside", memsim.HomeGlobal, 0)
		critical := func(p *memsim.Proc, who string) func() {
			return func() {
				if p.Read(inside) != 0 {
					p.Fail("%s overlapped", who)
				}
				p.Write(inside, 1)
				p.Write(inside, 0)
			}
		}
		m.AddProc("visitor", func(p *memsim.Proc) {
			for i := 0; i < 3; i++ {
				w.Visit(p, 0, critical(p, "visit"))
			}
		})
		m.AddProc("signaler", func(p *memsim.Proc) {
			for i := 0; i < 3; i++ {
				w.Signal(p, 0, critical(p, "signal"))
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
	w := New(m, memsim.NamePrefix(nil, "S"), true)
	flagA := m.NewVar("a", memsim.HomeGlobal, 0)
	m.AddProc("waiter", func(p *memsim.Proc) { w.WaitTrue(p, 1, flagA) })
	m.AddProc("noisy", func(p *memsim.Proc) {
		for i := 0; i < 5; i++ {
			w.Signal(p, 2, func() {}) // unrelated site traffic
		}
		w.Signal(p, 1, func() { p.Write(flagA, 1) })
	})
	if err := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(4)}).Err(); err != nil {
		t.Fatal(err)
	}
}

// pickLog is a Scheduler that writes every pick its inner scheduler
// makes to w, with the step and the runnable set.
type pickLog struct {
	memsim.Scheduler
	w io.Writer
}

func (l pickLog) Pick(step int64, runnable []int, last int) int {
	chosen := l.Scheduler.Pick(step, runnable, last)
	fmt.Fprintf(l.w, "step %d: %v -> p%d\n", step, runnable, chosen)
	return chosen
}

// TestFormsIssueTheirProtocol pins what each form of Waits does: the
// plain form issues exactly the operations and scheduling points of a
// bare await on the named variables, of the establishing write alone
// and of the visited body alone, and allocates no variable; the site
// form issues exactly those of the site's Sec. 3 protocol. A waiter
// and a signaler run one operation through the value and, on a twin
// machine, the same operation written out by hand; their traces must
// match event for event.
func TestFormsIssueTheirProtocol(t *testing.T) {
	const key = 5
	type vars struct{ a, b memsim.Var }
	ops := []struct {
		name      string
		initA     Word
		establish func(p *memsim.Proc, v vars) // the write that makes the wait's condition true
		wait      func(w Waits, p *memsim.Proc, v vars)
		bare      func(p *memsim.Proc, v vars)
		site      func(st *site, p *memsim.Proc, v vars)
	}{
		{
			name:      "WaitTrue",
			establish: func(p *memsim.Proc, v vars) { p.Write(v.a, 1) },
			wait:      func(w Waits, p *memsim.Proc, v vars) { w.WaitTrue(p, key, v.a) },
			bare:      func(p *memsim.Proc, v vars) { p.AwaitTrue(v.a) },
			site: func(st *site, p *memsim.Proc, v vars) {
				st.wait(p, func(read func(memsim.Var) Word) bool { return read(v.a) != 0 })
			},
		},
		{
			name:      "WaitZero",
			initA:     1,
			establish: func(p *memsim.Proc, v vars) { p.Write(v.a, 0) },
			wait:      func(w Waits, p *memsim.Proc, v vars) { w.WaitZero(p, key, v.a) },
			bare:      func(p *memsim.Proc, v vars) { p.AwaitEq(v.a, 0) },
			site: func(st *site, p *memsim.Proc, v vars) {
				st.wait(p, func(read func(memsim.Var) Word) bool { return read(v.a) == 0 })
			},
		},
		{
			name:      "WaitEither",
			initA:     1,
			establish: func(p *memsim.Proc, v vars) { p.Write(v.b, 7) },
			wait:      func(w Waits, p *memsim.Proc, v vars) { w.WaitEither(p, key, v.a, v.b, 7) },
			bare: func(p *memsim.Proc, v vars) {
				p.Await(func(read func(memsim.Var) Word) bool { return read(v.a) == 0 || read(v.b) == 7 }, v.a, v.b)
			},
			site: func(st *site, p *memsim.Proc, v vars) {
				st.wait(p, func(read func(memsim.Var) Word) bool { return read(v.a) == 0 || read(v.b) == 7 })
			},
		},
		{
			name:      "WaitTrueAbortable",
			establish: func(p *memsim.Proc, v vars) { p.Write(v.a, 1) },
			wait: func(w Waits, p *memsim.Proc, v vars) {
				if w.WaitTrueAbortable(p, key, v.a, func() { p.Fail("withdrew with no abort scheduled") }) {
					p.Fail("withdrew with no abort scheduled")
				}
			},
			bare: func(p *memsim.Proc, v vars) { p.AwaitTrue(v.a) },
			site: func(st *site, p *memsim.Proc, v vars) {
				st.waitAbortable(p, func(read func(memsim.Var) Word) bool { return read(v.a) != 0 }, func() {})
			},
		},
		{
			// The waiter's side is a Visit that reads the flag; the
			// signaler's establishing write races it.
			name:      "Visit",
			establish: func(p *memsim.Proc, v vars) { p.Write(v.a, 1) },
			wait: func(w Waits, p *memsim.Proc, v vars) {
				w.Visit(p, key, func() { p.Write(v.b, p.Read(v.a)) })
			},
			bare: func(p *memsim.Proc, v vars) { p.Write(v.b, p.Read(v.a)) },
			site: func(st *site, p *memsim.Proc, v vars) {
				st.mu.Acquire(p, 0)
				p.Write(v.b, p.Read(v.a))
				st.mu.Release(p, 0)
			},
		},
	}
	forms := []struct {
		name  string
		local bool
	}{{"plain", false}, {"site", true}}

	// run builds a two-process machine on model, runs it under seed and
	// renders everything it did: every operation with its variable's
	// label, every scheduling decision, each process's statistics and
	// how many variables the machine allocated.
	run := func(model memsim.Model, seed int64, initA Word, build func(m *memsim.Machine, v vars) (waiter, signaler func(p *memsim.Proc))) string {
		m := memsim.NewMachine(model, 2)
		v := vars{m.NewVar("a", memsim.HomeGlobal, initA), m.NewVar("b", memsim.HomeGlobal, 0)}
		waiter, signaler := build(m, v)
		m.AddProc("waiter", waiter)
		m.AddProc("signaler", signaler)
		rec := &recorder{}
		m.AttachSink(rec)
		var b strings.Builder
		res := m.Run(memsim.RunConfig{Sched: pickLog{memsim.NewRandom(seed), &b}})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range rec.events {
			fmt.Fprintf(&b, "%d p%d %v %s %d->%d remote=%v\n", ev.Step, ev.Proc, ev.Kind, m.Label(ev.Var), ev.Before, ev.After, ev.Remote)
		}
		for _, ps := range res.Procs {
			fmt.Fprintf(&b, "%+v\n", ps)
		}
		fmt.Fprintf(&b, "variables allocated: %d\n", m.NewVar("probe", memsim.HomeGlobal, 0).Index())
		m.Release()
		return b.String()
	}

	for _, op := range ops {
		for _, form := range forms {
			for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
				for seed := int64(0); seed < 8; seed++ {
					name := memsim.NamePrefix(nil, "S")
					got := run(model, seed, op.initA, func(m *memsim.Machine, v vars) (func(*memsim.Proc), func(*memsim.Proc)) {
						w := New(m, name, form.local)
						return func(p *memsim.Proc) { op.wait(w, p, v) },
							func(p *memsim.Proc) { w.Signal(p, key, func() { op.establish(p, v) }) }
					})
					want := run(model, seed, op.initA, func(m *memsim.Machine, v vars) (func(*memsim.Proc), func(*memsim.Proc)) {
						if !form.local {
							return func(p *memsim.Proc) { op.bare(p, v) },
								func(p *memsim.Proc) { op.establish(p, v) }
						}
						sites := newSiteSet(m, name)
						return func(p *memsim.Proc) { op.site(sites.at(key), p, v) },
							func(p *memsim.Proc) { sites.at(key).signal(p, func() { op.establish(p, v) }) }
					})
					if got != want {
						t.Fatalf("%s, %s form, %v, seed %d: the value's run differs from the protocol's\ngot:\n%s\nwant:\n%s",
							op.name, form.name, model, seed, got, want)
					}
				}
			}
		}
	}
}

// recorder keeps every event of a run.
type recorder struct{ events []memsim.TraceEvent }

func (r *recorder) Record(ev memsim.TraceEvent) { r.events = append(r.events, ev) }
