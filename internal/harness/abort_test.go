package harness

import (
	"strings"
	"testing"

	"fetchphi/internal/memsim"
)

// fakeAbortable is the trivially correct abortable mutex: test-and-set
// with abortable await. Withdrawal touches nothing shared, so it is
// wait-free by construction.
type fakeAbortable struct {
	fakeLock
}

func newFakeAbortable(m *memsim.Machine) Algorithm {
	return &fakeAbortable{fakeLock{lock: m.NewVar("fake.lock", memsim.HomeGlobal, 0)}}
}

func (f *fakeAbortable) AcquireAbortable(p *memsim.Proc) bool {
	for {
		if p.AbortRequested() {
			return false
		}
		if p.RMW(f.lock, func(memsim.Word) memsim.Word { return 1 }) == 0 {
			return true
		}
		if p.AwaitAbortable(func(read func(memsim.Var) memsim.Word) bool {
			return read(f.lock) == 0
		}, f.lock) {
			return false
		}
	}
}

// unsafeAbortable withdraws by clearing the lock word even when it
// does not hold it — freeing the real holder's lock out from under it.
// Only abort schedules expose the bug.
type unsafeAbortable struct {
	fakeAbortable
}

func newUnsafeAbortable(m *memsim.Machine) Algorithm {
	return &unsafeAbortable{fakeAbortable{fakeLock{lock: m.NewVar("fake.lock", memsim.HomeGlobal, 0)}}}
}

func (u *unsafeAbortable) AcquireAbortable(p *memsim.Proc) bool {
	ok := u.fakeAbortable.AcquireAbortable(p)
	if !ok {
		p.Write(u.lock, 0) // the bug: "rollback" of state it never owned
	}
	return ok
}

// sluggishAbortable is safe but not wait-free: it dawdles through a
// long private loop before honoring the request.
type sluggishAbortable struct {
	fakeAbortable
	scratch memsim.Var
}

func newSluggishAbortable(m *memsim.Machine) Algorithm {
	return &sluggishAbortable{
		fakeAbortable: fakeAbortable{fakeLock{lock: m.NewVar("fake.lock", memsim.HomeGlobal, 0)}},
		scratch:       m.NewVar("sluggish.scratch", 0, 0),
	}
}

func (s *sluggishAbortable) AcquireAbortable(p *memsim.Proc) bool {
	ok := s.fakeAbortable.AcquireAbortable(p)
	if !ok {
		for i := 0; i < AbortResolveBound+10; i++ {
			p.Write(s.scratch, memsim.Word(i))
		}
	}
	return ok
}

// TestRunAbortableNoAborts: with an empty schedule an abortable
// algorithm runs the abort-free passage loop — every entry completes
// and the amortized metric coincides with the per-entry mean.
func TestRunAbortableNoAborts(t *testing.T) {
	w := Workload{Model: memsim.CC, N: 3, Entries: 5, CSOps: 1, Seed: 1}
	met, err := Run(newFakeAbortable, w)
	if err != nil {
		t.Fatal(err)
	}
	if met.Aborts != 0 || met.Result.CSEntries != 15 || met.Passages != 15 {
		t.Fatalf("aborts=%d entries=%d passages=%d, want 0/15/15", met.Aborts, met.Result.CSEntries, met.Passages)
	}
	if met.AmortizedRMR != met.MeanRMR {
		t.Fatalf("amortized %v != mean %v despite zero aborts", met.AmortizedRMR, met.MeanRMR)
	}
}

// TestRunAbortableAccounting: a fired schedule shows up in every
// abort-side metric, and passages add up.
func TestRunAbortableAccounting(t *testing.T) {
	w := Workload{
		Model: memsim.DSM, N: 3, Entries: 4, CSOps: 1, Seed: 3,
		Aborts: []memsim.AbortPoint{
			{Proc: 0, Passage: 0, Event: 0},
			{Proc: 1, Passage: 2, Event: 1},
		},
		Retries:    1,
		RetryDelay: 3,
	}
	met, err := Run(newFakeAbortable, w)
	if err != nil {
		t.Fatal(err)
	}
	if met.Aborts == 0 {
		t.Fatal("schedule never fired")
	}
	if met.Passages != met.Result.CSEntries+met.Aborts {
		t.Fatalf("passages=%d, want entries %d + aborts %d", met.Passages, met.Result.CSEntries, met.Aborts)
	}
	if met.AmortizedRMR <= 0 {
		t.Fatalf("amortized RMR = %v, want positive", met.AmortizedRMR)
	}
}

// TestRunAbortableRetryBudget: with zero retries, an aborted entry is
// lost — the run still validates (CS entry count is free to be lower).
func TestRunAbortableRetryBudget(t *testing.T) {
	w := Workload{
		Model: memsim.CC, N: 2, Entries: 3, CSOps: 1, Seed: 5,
		Aborts: []memsim.AbortPoint{{Proc: 0, Passage: 0, Event: 0}},
	}
	met, err := Run(newFakeAbortable, w)
	if err != nil {
		t.Fatal(err)
	}
	if met.Aborts != 1 {
		t.Fatalf("aborts=%d, want exactly 1", met.Aborts)
	}
	if met.Result.CSEntries != 5 {
		t.Fatalf("entries=%d, want 5 (one of 6 lost to the abort)", met.Result.CSEntries)
	}
}

// TestCheckAbortableAcceptsCorrect: the conformance check passes the
// known-good abortable lock.
func TestCheckAbortableAcceptsCorrect(t *testing.T) {
	if err := CheckAbortable(newFakeAbortable, 2, 1, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAbortableCatchesUnsafeWithdrawal: the buggy rollback is
// invisible without aborts but must fall to some abort schedule.
func TestCheckAbortableCatchesUnsafeWithdrawal(t *testing.T) {
	if _, err := CheckSharded(newUnsafeAbortable, 2, 1, ExploreOptions{Preemptions: 1}); err != nil {
		t.Fatalf("bug should be invisible without aborts, got: %v", err)
	}
	err := CheckAbortable(newUnsafeAbortable, 2, 2, 1, 1, 0)
	if err == nil {
		t.Fatal("unsafe withdrawal passed the abort conformance check")
	}
	if !strings.Contains(err.Error(), "abort schedule") {
		t.Fatalf("failure does not name the abort schedule: %v", err)
	}
}

// TestCheckAbortableCatchesSlowWithdrawal: wait-freedom is part of the
// conformance contract, enforced via the per-run resolve bound.
func TestCheckAbortableCatchesSlowWithdrawal(t *testing.T) {
	err := CheckAbortable(newSluggishAbortable, 2, 1, 0, 0, 0)
	if err == nil {
		t.Fatal("sluggish withdrawal passed the abort conformance check")
	}
	if !strings.Contains(err.Error(), "not wait-free") {
		t.Fatalf("failure does not report the wait-free violation: %v", err)
	}
}

// TestSweepAbortableCell: an abortable cell runs through the sweep and
// records the abort-side artifact fields; a plain cell records none.
func TestSweepAbortableCell(t *testing.T) {
	cells := []Cell{
		{
			Experiment: "E10",
			Algorithm:  "fake-abortable",
			Build:      newFakeAbortable,
			Workload: Workload{
				Model: memsim.CC, N: 3, Entries: 4, CSOps: 1, Seed: 2,
				Aborts:  []memsim.AbortPoint{{Proc: 1, Passage: 0, Event: 1}},
				Retries: 1,
			},
		},
		{
			Experiment: "E1",
			Algorithm:  "fake",
			Build:      newFakeLock,
			Workload:   Workload{Model: memsim.CC, N: 3, Entries: 4, CSOps: 1, Seed: 2},
		},
	}
	results := Sweep(cells, 2)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	abortRec := results[0].Record()
	if abortRec.AbortSchedule != "p1@0.1" {
		t.Fatalf("abort cell schedule = %q, want p1@0.1", abortRec.AbortSchedule)
	}
	if abortRec.Passages == 0 || abortRec.Passages != results[0].Metrics.Passages {
		t.Fatalf("abort cell passages = %d, metrics say %d", abortRec.Passages, results[0].Metrics.Passages)
	}
	plainRec := results[1].Record()
	if plainRec.AbortSchedule != "" || plainRec.Passages != 0 || plainRec.AmortizedRMR != 0 {
		t.Fatalf("plain cell leaked abort fields: %+v", plainRec)
	}
}

// TestRunAbortableDeterministicPerSeed: the abort schedule is part of
// the deterministic run identity — same seed, same metrics.
func TestRunAbortableDeterministicPerSeed(t *testing.T) {
	run := func() Metrics {
		w := Workload{
			Model: memsim.DSM, N: 3, Entries: 4, CSOps: 1, Seed: 11,
			Aborts:  []memsim.AbortPoint{{Proc: 2, Passage: 1, Event: 2}},
			Retries: 1,
		}
		met, err := Run(newFakeAbortable, w)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	a, b := run(), run()
	if a.Result.Steps != b.Result.Steps || a.Aborts != b.Aborts || a.AmortizedRMR != b.AmortizedRMR {
		t.Fatalf("abortable run not deterministic: %+v vs %+v", a, b)
	}
}

// TestAbortsNeedAnAbortableAlgorithm: scheduling aborts for an
// algorithm that cannot withdraw is an error on every path — Run
// refuses before the run starts, a model check fails its runs through
// the process instead of panicking in Build, and CheckAbortable
// reports it.
func TestAbortsNeedAnAbortableAlgorithm(t *testing.T) {
	aborts := []memsim.AbortPoint{{Proc: 0, Passage: 0, Event: 0}}
	const want = "fake is not an AbortableAlgorithm"
	_, err := Run(newFakeLock, Workload{Model: memsim.CC, N: 2, Entries: 1, Seed: 1, Aborts: aborts})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run: %v, want %q", err, want)
	}
	res := CheckExplorer(newFakeLock, memsim.CC, 2, 1, ExploreOptions{Workers: 1, Aborts: aborts}).Run()
	if res.Err == nil || !strings.Contains(res.Err.Error(), want) {
		t.Fatalf("CheckExplorer: %v, want %q", res.Err, want)
	}
	if err := CheckAbortable(newFakeLock, 2, 1, 0, 0, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckAbortable: %v, want %q", err, want)
	}
}
