package memsim

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fetchphi/internal/phi"
)

// runOne builds a machine with build, runs it round-robin, and fails
// the test on any error.
func runOne(t *testing.T, model Model, nproc int, build func(m *Machine)) Result {
	t.Helper()
	m := NewMachine(model, nproc)
	build(m)
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCCReadCachingAndInvalidation(t *testing.T) {
	m := NewMachine(CC, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("reader", func(p *Proc) {
		p.Read(v) // miss: 1 RMR
		p.Read(v) // hit: 0
		p.Read(v) // hit: 0
		p.Read(v) // scheduled after the write below: invalidated, 1 RMR
	})
	m.AddProc("writer", func(p *Proc) {
		p.Write(v, 7) // writer not sole sharer: 1 RMR
	})
	// Each process's first step starts its body and runs it to its
	// first operation, then: reader performs 3 reads, writer 1 write,
	// reader the final read.
	order := []int{0, 0, 0, 0, 1, 1, 0}
	res := m.Run(RunConfig{Sched: scriptSched(order)})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].RMRs; got != 2 {
		t.Errorf("reader RMRs = %d, want 2", got)
	}
	if got := res.Procs[1].RMRs; got != 1 {
		t.Errorf("writer RMRs = %d, want 1", got)
	}
}

func TestCCExclusiveWriteIsLocal(t *testing.T) {
	res := runOne(t, CC, 1, func(m *Machine) {
		v := m.NewVar("v", HomeGlobal, 0)
		m.AddProc("p", func(p *Proc) {
			p.Write(v, 1)                                // miss: 1
			p.Write(v, 2)                                // exclusive: 0
			p.Read(v)                                    // own copy: 0
			p.RMW(v, func(w Word) Word { return w + 1 }) // exclusive: 0
		})
	})
	if got := res.Procs[0].RMRs; got != 1 {
		t.Errorf("RMRs = %d, want 1", got)
	}
}

func TestDSMHomeAccounting(t *testing.T) {
	res := runOne(t, DSM, 2, func(m *Machine) {
		mine := m.NewVar("mine", 0, 0)
		theirs := m.NewVar("theirs", 1, 0)
		global := m.NewVar("global", HomeGlobal, 0)
		m.AddProc("p0", func(p *Proc) {
			p.Read(mine)       // local: 0
			p.Write(mine, 1)   // local: 0
			p.Read(theirs)     // remote: 1
			p.Write(theirs, 1) // remote: 1
			p.Read(global)     // remote: 1
		})
		m.AddProc("p1", func(p *Proc) {})
	})
	if got := res.Procs[0].RMRs; got != 3 {
		t.Errorf("RMRs = %d, want 3", got)
	}
}

func TestDSMRepeatedLocalAccessFree(t *testing.T) {
	res := runOne(t, DSM, 1, func(m *Machine) {
		v := m.NewVar("v", 0, 0)
		m.AddProc("p", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Write(v, Word(i))
				p.Read(v)
			}
		})
	})
	if got := res.Procs[0].RMRs; got != 0 {
		t.Errorf("RMRs = %d, want 0", got)
	}
}

func TestAwaitWakesOnWrite(t *testing.T) {
	res := runOne(t, CC, 2, func(m *Machine) {
		flag := m.NewVar("flag", HomeGlobal, 0)
		v := m.NewVar("v", HomeGlobal, 0)
		m.AddProc("waiter", func(p *Proc) {
			p.AwaitTrue(flag)
			if got := p.Read(v); got != 42 {
				p.failf("read %d before signal", got)
			}
		})
		m.AddProc("signaler", func(p *Proc) {
			p.Write(v, 42)
			p.Write(flag, 1)
		})
	})
	if !res.Completed {
		t.Fatal("run did not complete")
	}
}

func TestAwaitConditionAlreadyTrue(t *testing.T) {
	runOne(t, CC, 1, func(m *Machine) {
		v := m.NewVar("v", HomeGlobal, 5)
		m.AddProc("p", func(p *Proc) {
			p.AwaitEq(v, 5)
		})
	})
}

func TestAwaitSpinRMRAccountingCC(t *testing.T) {
	// Waiter spins; writer writes the watched var three times with
	// wrong values then the right one. Each re-check after an
	// invalidation costs exactly 1 RMR: 1 (initial read) + 4
	// (re-checks after each write) = 5.
	m := NewMachine(CC, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("waiter", func(p *Proc) {
		p.AwaitEq(v, 9)
	})
	m.AddProc("writer", func(p *Proc) {
		for _, x := range []Word{1, 2, 3, 9} {
			p.Write(v, x)
		}
	})
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].RMRs; got != 5 {
		t.Errorf("waiter RMRs = %d, want 5", got)
	}
	if got := res.Procs[0].NonLocalSpinReads; got != 0 {
		t.Errorf("CC model reported %d non-local spin reads", got)
	}
}

func TestNonLocalSpinDetectionDSM(t *testing.T) {
	m := NewMachine(DSM, 2)
	v := m.NewVar("v", 1, 0) // homed at the writer: remote to the spinner
	m.AddProc("waiter", func(p *Proc) { p.AwaitTrue(v) })
	m.AddProc("writer", func(p *Proc) {
		p.Write(v, 0) // spurious wake: forces a remote recheck
		p.Write(v, 1)
	})
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].NonLocalSpinReads; got == 0 {
		t.Error("remote spin not detected")
	}
}

func TestLocalSpinDSMIsFree(t *testing.T) {
	m := NewMachine(DSM, 2)
	v := m.NewVar("v", 0, 0) // homed at the spinner
	m.AddProc("waiter", func(p *Proc) { p.AwaitTrue(v) })
	m.AddProc("writer", func(p *Proc) { p.Write(v, 1) })
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].RMRs; got != 0 {
		t.Errorf("local spinner paid %d RMRs", got)
	}
	if got := res.Procs[1].RMRs; got != 1 {
		t.Errorf("remote writer paid %d RMRs, want 1", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewMachine(CC, 2)
	a := m.NewVar("a", HomeGlobal, 0)
	b := m.NewVar("b", HomeGlobal, 0)
	m.AddProc("p0", func(p *Proc) { p.AwaitTrue(a); p.Write(b, 1) })
	m.AddProc("p1", func(p *Proc) { p.AwaitTrue(b); p.Write(a, 1) })
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if !res.Deadlocked {
		t.Fatalf("deadlock not detected: %+v", res)
	}
	if len(res.WaitingProcs) != 2 {
		t.Errorf("WaitingProcs = %v, want both", res.WaitingProcs)
	}
	if res.Err() == nil {
		t.Error("Err() = nil for deadlocked run")
	}
}

func TestMaxStepsTimeout(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("spinner", func(p *Proc) {
		for i := 0; ; i++ {
			p.Write(v, Word(i))
		}
	})
	res := m.Run(RunConfig{Sched: RoundRobin{}, MaxSteps: 50})
	if !res.TimedOut {
		t.Fatal("step bound not enforced")
	}
}

func TestMutualExclusionMonitorCatchesOverlap(t *testing.T) {
	m := NewMachine(CC, 2)
	body := func(p *Proc) {
		p.EnterCS()
		p.ExitCS()
	}
	m.AddProc("p0", body)
	m.AddProc("p1", body)
	// Interleave the two EnterCS calls.
	res := m.Run(RunConfig{Sched: scriptSched([]int{0, 1, 0, 1})})
	if res.Violation == nil {
		t.Fatal("overlapping critical sections not detected")
	}
}

func TestCSEntriesCounted(t *testing.T) {
	res := runOne(t, CC, 1, func(m *Machine) {
		m.AddProc("p", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.EnterCS()
				p.ExitCS()
			}
		})
	})
	if res.CSEntries != 5 {
		t.Errorf("CSEntries = %d, want 5", res.CSEntries)
	}
	if res.Procs[0].CSEntries != 5 {
		t.Errorf("proc CSEntries = %d, want 5", res.Procs[0].CSEntries)
	}
}

func TestFetchPhiReturnsOldValue(t *testing.T) {
	runOne(t, CC, 1, func(m *Machine) {
		v := m.NewVar("v", HomeGlobal, phi.Bottom)
		m.AddProc("p", func(p *Proc) {
			prim := phi.FetchAndIncrement{}
			if old := p.FetchPhi(v, prim, phi.Bottom); old != phi.Bottom {
				p.failf("first invocation returned %d", old)
			}
			if old := p.FetchPhi(v, prim, phi.Bottom); old != 1 {
				p.failf("second invocation returned %d", old)
			}
		})
	})
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Result {
		m := NewMachine(CC, 3)
		v := m.NewVar("v", HomeGlobal, 0)
		for i := 0; i < 3; i++ {
			m.AddProc("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.RMW(v, func(w Word) Word { return w + 1 })
					p.Read(v)
				}
			})
		}
		return m.Run(RunConfig{Sched: NewRandom(42)})
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.TotalRMRs() != b.TotalRMRs() {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestStickySchedulerQuantum(t *testing.T) {
	var picks []int
	m := NewMachine(CC, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		m.AddProc("p", func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Write(v, 1)
			}
		})
	}
	res := m.Run(RunConfig{Sched: Observed{
		Scheduler: &Sticky{Quantum: 4},
		See:       func(_ int64, _ []int, chosen int) { picks = append(picks, chosen) },
	}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks = %v, want %v", picks, want)
		}
	}
}

func TestDictAllocatesPerKey(t *testing.T) {
	m := NewMachine(DSM, 1)
	d := m.NewDict("sig", HomeGlobal, 0)
	a, b := d.At(10), d.At(20)
	if a == b {
		t.Fatal("distinct keys share a variable")
	}
	if d.At(10) != a {
		t.Fatal("repeated key did not return the same variable")
	}
	m.AddProc("p", func(p *Proc) {
		p.Write(d.At(10), 1)
		if p.Read(d.At(20)) != 0 {
			p.failf("cross-key interference")
		}
	})
	if err := m.Run(RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
}

func TestValueInspection(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 3)
	m.AddProc("p", func(p *Proc) { p.Write(v, 9) })
	if err := m.Run(RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	if got := m.Value(v); got != 9 {
		t.Errorf("Value = %d, want 9", got)
	}
}

// scriptSched replays a fixed pick sequence, then falls back to the
// lowest runnable id.
type scriptSched []int

func (s scriptSched) Pick(step int64, runnable []int, _ int) int {
	if step < int64(len(s)) && slices.Contains(runnable, s[step]) {
		return s[step]
	}
	return runnable[0]
}

func TestBitset(t *testing.T) {
	var b bitset
	b.resize(130)
	if b.has(0) || b.has(129) {
		t.Fatal("fresh bitset non-empty")
	}
	b.add(0)
	b.add(129)
	b.add(129) // idempotent
	if !b.has(0) || !b.has(129) || b.has(64) {
		t.Fatal("membership wrong after add")
	}
	if b.hasOnly(0) {
		t.Fatal("hasOnly true with two members")
	}
	b.clear()
	b.add(64)
	if !b.hasOnly(64) {
		t.Fatal("hasOnly false for singleton")
	}
	b.add(0)
	if b.hasOnly(64) || b.hasOnly(0) || b.len() != 2 {
		t.Fatal("hasOnly true with members in two words")
	}
	b.remove(64)
	if !b.hasOnly(0) || b.len() != 1 {
		t.Fatal("hasOnly false for singleton after remove")
	}
	b.clear()
	if b.has(0) || b.has(64) || b.len() != 0 {
		t.Fatal("clear failed")
	}
}

// TestVariableLayout pins the size of the per-variable state. Every
// machine that is never released pays for each byte, and a
// chunk of chunkVars variables is sized to be exactly a malloc size
// class (1792 bytes): a smaller variable needs a new chunkVars.
func TestVariableLayout(t *testing.T) {
	if got := unsafe.Sizeof(variable{}); got > 112 {
		t.Errorf("variable is %d bytes, want at most 112", got)
	}
	if got := unsafe.Sizeof(varChunk{}); got != 1792 {
		t.Errorf("varChunk is %d bytes, want the 1792-byte size class", got)
	}
}

func TestNewMachinePanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nproc=0")
		}
	}()
	NewMachine(CC, 0)
}

func TestAddProcBeyondCapacityPanics(t *testing.T) {
	m := NewMachine(CC, 1)
	m.AddProc("p", func(*Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for excess AddProc")
		}
	}()
	m.AddProc("q", func(*Proc) {})
}

func TestModelString(t *testing.T) {
	if CC.String() != "CC" || DSM.String() != "DSM" {
		t.Fatal("Model.String wrong")
	}
}

func TestCCUpdateSpinsAreFreeAfterFirstRead(t *testing.T) {
	// Under write-update, the waiter misses once; every re-check after
	// a writer update is an in-place refreshed hit (0 RMRs). The
	// writer pays per write instead.
	m := NewMachine(CCUpdate, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("waiter", func(p *Proc) { p.AwaitEq(v, 9) })
	m.AddProc("writer", func(p *Proc) {
		for _, x := range []Word{1, 2, 3, 9} {
			p.Write(v, x)
		}
	})
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].RMRs; got != 1 {
		t.Errorf("waiter RMRs = %d, want 1 (cold miss only)", got)
	}
	if got := res.Procs[1].RMRs; got != 4 {
		t.Errorf("writer RMRs = %d, want 4 (one update per write)", got)
	}
}

func TestCCUpdateSoleOwnerWritesAreLocal(t *testing.T) {
	m := NewMachine(CCUpdate, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("p", func(p *Proc) {
		p.Write(v, 1) // cold miss: 1
		p.Write(v, 2) // sole owner: 0
		p.Read(v)     // hit: 0
	})
	res := m.Run(RunConfig{Sched: RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[0].RMRs; got != 1 {
		t.Errorf("RMRs = %d, want 1", got)
	}
}

func TestModelStringCCUpdate(t *testing.T) {
	if CCUpdate.String() != "CC-update" {
		t.Fatal("CCUpdate.String wrong")
	}
	if Model(9).String() != "Model(9)" {
		t.Fatal("unknown model string wrong")
	}
}

func TestHotVarsAttribution(t *testing.T) {
	m := NewMachine(DSM, 2)
	hot := m.NewVar("hot", HomeGlobal, 0)
	cold := m.NewVar("cold", 0, 0)
	m.AddProc("p0", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Write(hot, Word(i))  // remote every time
			p.Write(cold, Word(i)) // local
		}
	})
	m.AddProc("p1", func(p *Proc) { p.Read(hot) })
	if err := m.Run(RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	vars := m.HotVars(5)
	if len(vars) != 1 || vars[0].Name != "hot" || vars[0].RMRs != 11 {
		t.Fatalf("HotVars = %+v, want hot with 11 RMRs", vars)
	}
	if got := m.HotVars(0); len(got) != 1 {
		t.Fatalf("HotVars(0) should return all entries, got %+v", got)
	}
}

// TestHotVarsMatchesFullSort checks HotVars, which labels and sorts
// only the rows at or above the k-th largest count, against a reference
// that sorts every variable with RMRs: for every k, including 0, ties
// straddling the cut, and k beyond the row count.
func TestHotVarsMatchesFullSort(t *testing.T) {
	m := NewMachine(DSM, 2)
	// Allocation order is not name order, so ties are broken by name,
	// and the array members' labels are formatted lazily.
	counts := []int64{3, 0, 7, 3, 1, 7, 0, 3, 9, 1, 3, 2}
	arr := m.NewArray("arr", len(counts)/2, 0, 0)
	for i, c := range counts {
		v := arr[i/2]
		if i%2 == 1 {
			v = m.NewVar(fmt.Sprintf("v%02d", len(counts)-i), 1, 0)
		}
		m.varAt(v).rmrs = c
	}
	// Query before the reference labels every variable, so HotVars
	// formats the labels it needs itself.
	ks := []int{3, -1, 0, 1, 2, 4, 5, 6, 7, 8, len(counts), len(counts) + 2}
	got := make([][]VarRMR, len(ks))
	for i, k := range ks {
		got[i] = m.HotVars(k)
	}
	var all []VarRMR
	m.eachVar(func(vv *variable) {
		if vv.rmrs > 0 {
			all = append(all, VarRMR{Name: vv.label(), RMRs: vv.rmrs})
		}
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].RMRs != all[j].RMRs {
			return all[i].RMRs > all[j].RMRs
		}
		return all[i].Name < all[j].Name
	})
	for i, k := range ks {
		want := all
		if k > 0 && k < len(all) {
			want = all[:k]
		}
		if !slices.Equal(got[i], want) {
			t.Errorf("HotVars(%d) = %v, want %v", k, got[i], want)
		}
	}
}

// contendedMachine is three processes incrementing one variable.
func contendedMachine() *Machine {
	m := NewMachine(CC, 3)
	v := m.NewVar("v", HomeGlobal, 0)
	for j := 0; j < 3; j++ {
		m.AddProc("p", func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.RMW(v, func(w Word) Word { return w + 1 })
			}
		})
	}
	return m
}

// panicSched picks round-robin but panics at step at.
type panicSched struct{ at int64 }

func (s panicSched) Pick(step int64, runnable []int, last int) int {
	panicAt(step, s.at)
	return RoundRobin{}.Pick(step, runnable, last)
}

func panicAt(step, at int64) {
	if step == at {
		panic(fmt.Sprintf("boom at step %d", at))
	}
}

// runRecover runs m and returns what Run panicked with, nil if it
// returned normally.
func runRecover(m *Machine, cfg RunConfig) (r any) {
	defer func() { r = recover() }()
	m.Run(cfg)
	return nil
}

// TestSchedulerPanicReachesCaller: a panic in Scheduler.Pick,
// whichever goroutine holds the baton when it fires (Run's own at step
// 0, a process's later), surfaces from Run with its original value
// instead of crashing a process goroutine.
func TestSchedulerPanicReachesCaller(t *testing.T) {
	for _, at := range []int64{0, 1, 3, 7} {
		want := fmt.Sprintf("boom at step %d", at)
		if got := runRecover(contendedMachine(), RunConfig{Sched: panicSched{at: at}}); got != want {
			t.Errorf("Pick panic at step %d: Run panicked with %v, want %q", at, got, want)
		}
	}
	// The explorer's chooser panics when a replayed schedule names a
	// process that is not runnable; that must reach the caller too.
	e := &Explorer{Build: contendedMachine}
	var got any
	func() {
		defer func() { got = recover() }()
		e.ReplaySchedule([]Preemption{{Step: 2, Proc: 9}})
	}()
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "schedule replay diverged") {
		t.Errorf("diverged replay: Run panicked with %v", got)
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	// The engine must fully unwind its process coroutines on every
	// exit path: completion, violation, deadlock, timeout, a panicking
	// Scheduler at its first step or a later one, and a panicking
	// process body.
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 350; i++ {
		switch i % 7 {
		case 0: // completion
			m := NewMachine(CC, 3)
			v := m.NewVar("v", HomeGlobal, 0)
			for j := 0; j < 3; j++ {
				m.AddProc("p", func(p *Proc) { p.Write(v, 1) })
			}
			m.Run(RunConfig{Sched: RoundRobin{}})
		case 1: // violation
			m := NewMachine(CC, 2)
			body := func(p *Proc) { p.EnterCS(); p.ExitCS() }
			m.AddProc("a", body)
			m.AddProc("b", body)
			m.Run(RunConfig{Sched: scriptSched([]int{0, 1, 0, 1})})
		case 2: // deadlock
			m := NewMachine(CC, 2)
			never := m.NewVar("never", HomeGlobal, 0)
			m.AddProc("a", func(p *Proc) { p.AwaitTrue(never) })
			m.AddProc("b", func(p *Proc) { p.AwaitTrue(never) })
			m.Run(RunConfig{Sched: RoundRobin{}})
		case 3: // timeout
			m := NewMachine(CC, 1)
			v := m.NewVar("v", HomeGlobal, 0)
			m.AddProc("spin", func(p *Proc) {
				for {
					p.Write(v, 1)
				}
			})
			m.Run(RunConfig{Sched: RoundRobin{}, MaxSteps: 20})
		case 4: // scheduler panic, re-raised in Run's caller
			runRecover(contendedMachine(), RunConfig{Sched: panicSched{at: 3}})
		case 5: // scheduler panic at the first step, in Run's own goroutine
			runRecover(contendedMachine(), RunConfig{Sched: panicSched{at: 0}})
		case 6: // body panic, re-raised in Run's caller
			runRecover(panickyMachine(), RunConfig{Sched: RoundRobin{}})
		}
	}
	awaitGoroutines(t, before+2, "standalone runs")

	// The explorer's workers retire their carriers when a wave is done,
	// whether the space passes, fails, hits the run cap mid-wave, or
	// panics on a diverging replay.
	fixed := func(build func() *Machine) func() func() *Machine {
		return func() func() *Machine { return build }
	}
	// diverging builds three processes the first time, so the root
	// schedule spawns children preempting to p1 and p2, and one process
	// ever after, so replaying any of those children panics.
	diverging := func() func() *Machine {
		var builds atomic.Int64
		return func() *Machine {
			if builds.Add(1) == 1 {
				return tasLockMachineN(3, 1)()
			}
			return tasLockMachineN(1, 1)()
		}
	}
	cases := []struct {
		name     string
		newBuild func() func() *Machine
		maxRuns  int
		check    func(ExploreResult) bool
	}{
		{"passing", fixed(tasLockMachineN(3, 1)), 0, func(r ExploreResult) bool { return r.Exhausted && r.Err == nil }},
		{"failing", fixed(brokenLockMachineN(2, 2)), 0, func(r ExploreResult) bool { return r.Err != nil }},
		{"capped mid-wave", fixed(tasLockMachineN(3, 1)), 7, func(r ExploreResult) bool { return r.Runs == 7 && !r.Exhausted }},
		{"diverged", diverging, 0, nil},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			what := fmt.Sprintf("%s at %d workers", tc.name, workers)
			var res ExploreResult
			e := Explorer{Build: tc.newBuild(), MaxPreemptions: 2, MaxRuns: tc.maxRuns, Workers: workers}
			got := recoverPanic(func() { res = e.Run() })
			if (tc.check == nil) != (got != nil) || tc.check != nil && !tc.check(res) {
				t.Fatalf("%s: Run returned %+v, panicked with %v", what, res, got)
			}
			awaitGoroutines(t, before, what+", Run")

			// RunScheduleRange returns the divergence as its error.
			e = Explorer{Build: tc.newBuild(), MaxPreemptions: 2, Workers: workers}
			wave := rangeWaves(t, &e, 1)[1]
			var err error
			got = recoverPanic(func() { _, err = e.RunScheduleRange(wave) })
			if got != nil || (tc.check == nil) != (err != nil) ||
				err != nil && !strings.Contains(err.Error(), "schedule replay diverged") {
				t.Fatalf("%s: RunScheduleRange returned %v, panicked with %v", what, err, got)
			}
			awaitGoroutines(t, before, what+", RunScheduleRange")
		}
	}
}

// recoverPanic calls f and returns what it panicked with, nil if it
// returned normally.
func recoverPanic(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// awaitGoroutines waits up to a second for the goroutine count to drop
// to at most max, and fails the test naming what leaked if it does not.
func awaitGoroutines(t *testing.T, max int, what string) {
	t.Helper()
	for wait := 0; wait < 1000; wait++ {
		if runtime.NumGoroutine() <= max {
			return
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: goroutines leaked: %d, want at most %d", what, runtime.NumGoroutine(), max)
}
