package memsim

import (
	"reflect"
	"strings"
	"testing"
)

// TestAbortFiresAtScheduledEvent: a point at event k becomes visible to
// AbortRequested exactly after the k-th entry-section operation (event 0
// before the first).
func TestAbortFiresAtScheduledEvent(t *testing.T) {
	for _, ev := range []int{0, 1, 2, 4} {
		observed := -1
		m := NewMachine(CC, 1)
		v := m.NewVar("v", HomeGlobal, 0)
		m.ScheduleAborts(AbortPoint{Proc: 0, Passage: 0, Event: ev})
		m.AddProc("p", func(p *Proc) {
			p.BeginEntrySection()
			for i := 0; i < 4; i++ {
				if p.AbortRequested() && observed < 0 {
					observed = i
				}
				p.Write(v, Word(i))
			}
			if p.AbortRequested() && observed < 0 {
				observed = 4
			}
			p.AbortPassage()
		})
		if err := m.Run(RunConfig{}).Err(); err != nil {
			t.Fatal(err)
		}
		if observed != ev {
			t.Fatalf("point at event %d first observed at operation %d", ev, observed)
		}
	}
}

// TestAbortTargetsPassage: a passage-1 point leaves passage 0 alone and
// aborts the re-request; later passages are untouched.
func TestAbortTargetsPassage(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.ScheduleAborts(AbortPoint{Proc: 0, Passage: 1, Event: 0})
	var aborted []int
	m.AddProc("p", func(p *Proc) {
		for pass := 0; pass < 3; pass++ {
			p.BeginEntrySection()
			p.Write(v, 1)
			if p.AbortRequested() {
				aborted = append(aborted, pass)
				p.AbortPassage()
				continue
			}
			p.EnterCS()
			p.ExitCS()
			p.Write(v, 0)
			p.EndExitSection()
		}
	})
	res := m.Run(RunConfig{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(aborted) != 1 || aborted[0] != 1 {
		t.Fatalf("aborted passages = %v, want [1]", aborted)
	}
	if res.TotalAborts() != 1 || res.CSEntries != 2 || res.Passages() != 3 {
		t.Fatalf("aborts=%d csEntries=%d passages=%d, want 1/2/3",
			res.TotalAborts(), res.CSEntries, res.Passages())
	}
}

// TestAbortPointForFinishedPassageIsDead: a point whose event count is
// never reached within its passage does not leak into later passages.
func TestAbortPointForFinishedPassageIsDead(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.ScheduleAborts(AbortPoint{Proc: 0, Passage: 0, Event: 50})
	m.AddProc("p", func(p *Proc) {
		for pass := 0; pass < 2; pass++ {
			p.BeginEntrySection()
			p.Write(v, 1)
			if p.AbortRequested() {
				p.AbortPassage()
				continue
			}
			p.EnterCS()
			p.ExitCS()
			p.EndExitSection()
		}
	})
	res := m.Run(RunConfig{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.TotalAborts() != 0 || res.CSEntries != 2 {
		t.Fatalf("dead point fired: aborts=%d csEntries=%d", res.TotalAborts(), res.CSEntries)
	}
}

// TestAwaitAbortableReturnsOnAbort: a pending request makes
// AwaitAbortable return true even though the condition never holds.
func TestAwaitAbortableReturnsOnAbort(t *testing.T) {
	m := NewMachine(CC, 2)
	flag := m.NewVar("flag", HomeGlobal, 0)
	m.ScheduleAborts(AbortPoint{Proc: 0, Passage: 0, Event: 0})
	sawAbort := false
	m.AddProc("waiter", func(p *Proc) {
		p.BeginEntrySection()
		sawAbort = p.AwaitAbortable(func(read func(Var) Word) bool { return read(flag) != 0 }, flag)
		if !sawAbort {
			p.Fail("waiter saw flag=1 that nobody writes")
		}
		p.AbortPassage()
	})
	m.AddProc("bystander", func(p *Proc) { p.Read(flag) })
	res := m.Run(RunConfig{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawAbort || res.TotalAborts() != 1 {
		t.Fatalf("sawAbort=%v aborts=%d, want true/1", sawAbort, res.TotalAborts())
	}
}

// TestAwaitAbortableReturnsOnCondition: with no abort scheduled it is
// plain Await with a false return.
func TestAwaitAbortableReturnsOnCondition(t *testing.T) {
	m := NewMachine(CC, 2)
	flag := m.NewVar("flag", HomeGlobal, 0)
	m.AddProc("waiter", func(p *Proc) {
		p.BeginEntrySection()
		if p.AwaitAbortable(func(read func(Var) Word) bool { return read(flag) != 0 }, flag) {
			p.Fail("waiter aborted with no abort scheduled")
		}
		p.EnterCS()
		p.ExitCS()
		p.EndExitSection()
	})
	m.AddProc("setter", func(p *Proc) { p.Write(flag, 1) })
	if err := m.Run(RunConfig{}).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortResolveLatencyAccounting: steps between the fire point and
// the withdrawal land in MaxAbortResolveSteps.
func TestAbortResolveLatencyAccounting(t *testing.T) {
	const extraOps = 3
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.ScheduleAborts(AbortPoint{Proc: 0, Passage: 0, Event: 0})
	m.AddProc("p", func(p *Proc) {
		p.BeginEntrySection()
		for i := 0; i < extraOps; i++ {
			p.Write(v, Word(i))
		}
		p.AbortPassage()
	})
	res := m.Run(RunConfig{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := res.MaxAbortResolveSteps(); got != extraOps {
		t.Fatalf("MaxAbortResolveSteps = %d, want %d", got, extraOps)
	}
}

// TestAbortLapsesOnCSEntry: an acquisition that outruns the request
// completes the passage normally, but the steps still count against the
// wait-free-abort bound.
func TestAbortLapsesOnCSEntry(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.ScheduleAborts(AbortPoint{Proc: 0, Passage: 0, Event: 0})
	m.AddProc("p", func(p *Proc) {
		p.BeginEntrySection()
		p.Write(v, 1)
		p.EnterCS()
		if p.AbortRequested() {
			p.Fail("request survived CS entry")
		}
		p.ExitCS()
		p.EndExitSection()
	})
	res := m.Run(RunConfig{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.TotalAborts() != 0 || res.CSEntries != 1 {
		t.Fatalf("aborts=%d csEntries=%d, want 0/1", res.TotalAborts(), res.CSEntries)
	}
	if res.MaxAbortResolveSteps() == 0 {
		t.Fatal("lapsed request left no resolve-latency trace")
	}
}

// TestAbortPassageWithoutRequestIsViolation: withdrawal with no pending
// request is a harness bug, reported like any violation.
func TestAbortPassageWithoutRequestIsViolation(t *testing.T) {
	m := NewMachine(CC, 1)
	m.AddProc("p", func(p *Proc) {
		p.BeginEntrySection()
		p.AbortPassage()
	})
	if res := m.Run(RunConfig{}); res.Violation == nil {
		t.Fatal("spurious AbortPassage was not reported as a violation")
	}
}

// TestScheduleAbortsValidation: bad coordinates panic at schedule time,
// not mid-run.
func TestScheduleAbortsValidation(t *testing.T) {
	for _, pt := range []AbortPoint{
		{Proc: 2, Passage: 0, Event: 0},
		{Proc: -1, Passage: 0, Event: 0},
		{Proc: 0, Passage: -1, Event: 0},
		{Proc: 0, Passage: 0, Event: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleAborts(%v) did not panic", pt)
				}
			}()
			NewMachine(CC, 2).ScheduleAborts(pt)
		}()
	}
}

// TestDistributeSortsUnorderedSchedule: points given out of order are
// delivered in (passage, event) order per process.
func TestDistributeSortsUnorderedSchedule(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.ScheduleAborts(
		AbortPoint{Proc: 0, Passage: 1, Event: 0},
		AbortPoint{Proc: 0, Passage: 0, Event: 0},
	)
	var aborted []int
	m.AddProc("p", func(p *Proc) {
		for pass := 0; pass < 3; pass++ {
			p.BeginEntrySection()
			p.Write(v, 1)
			if p.AbortRequested() {
				aborted = append(aborted, pass)
				p.AbortPassage()
				continue
			}
			p.EnterCS()
			p.ExitCS()
			p.EndExitSection()
		}
	})
	if err := m.Run(RunConfig{}).Err(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(aborted, want) {
		t.Fatalf("aborted passages = %v, want %v", aborted, want)
	}
}

// TestEnumerateAbortSchedulesCanonical: the family's size, leading
// entries, and byte layout are part of the conformance artifacts'
// identity — pin them.
func TestEnumerateAbortSchedulesCanonical(t *testing.T) {
	scheds := EnumerateAbortSchedules(2, 2, true)
	// nil + 2·3 singles + 2·3 retry doubles + 1·3 cross pairs.
	if len(scheds) != 16 {
		t.Fatalf("len = %d, want 16", len(scheds))
	}
	if scheds[0] != nil {
		t.Fatalf("schedule 0 = %v, want the empty schedule", scheds[0])
	}
	wantPrefix := [][]AbortPoint{
		nil,
		{{Proc: 0, Passage: 0, Event: 0}},
		{{Proc: 0, Passage: 0, Event: 1}},
		{{Proc: 0, Passage: 0, Event: 2}},
		{{Proc: 1, Passage: 0, Event: 0}},
	}
	if !reflect.DeepEqual(scheds[:len(wantPrefix)], wantPrefix) {
		t.Fatalf("prefix = %v, want %v", scheds[:len(wantPrefix)], wantPrefix)
	}
	wantLast := []AbortPoint{{Proc: 0, Passage: 0, Event: 2}, {Proc: 1, Passage: 0, Event: 2}}
	if !reflect.DeepEqual(scheds[len(scheds)-1], wantLast) {
		t.Fatalf("last = %v, want %v", scheds[len(scheds)-1], wantLast)
	}
	if again := EnumerateAbortSchedules(2, 2, true); !reflect.DeepEqual(scheds, again) {
		t.Fatal("enumeration is not deterministic")
	}
	if noRetry := EnumerateAbortSchedules(2, 2, false); len(noRetry) != 10 {
		t.Fatalf("no-retry len = %d, want 10", len(noRetry))
	}
}

// TestFormatAbortSchedule: the grep-able forms used in failure reports.
func TestFormatAbortSchedule(t *testing.T) {
	if got := FormatAbortSchedule(nil); got != "-" {
		t.Fatalf("empty schedule renders as %q", got)
	}
	sched := []AbortPoint{{Proc: 0, Passage: 0, Event: 2}, {Proc: 1, Passage: 1, Event: 0}}
	if got, want := FormatAbortSchedule(sched), "p0@0.2,p1@1.0"; got != want {
		t.Fatalf("FormatAbortSchedule = %q, want %q", got, want)
	}
	// A long schedule renders point by point, comma-joined, like a
	// short one.
	long := make([]AbortPoint, 5000)
	want := make([]string, len(long))
	for i := range long {
		long[i] = AbortPoint{Proc: i % 7, Passage: i / 7, Event: i % 13}
		want[i] = long[i].String()
	}
	if got := FormatAbortSchedule(long); got != strings.Join(want, ",") {
		t.Fatalf("FormatAbortSchedule of %d points = %.80q..., want %.80q...", len(long), got, strings.Join(want, ","))
	}
}
