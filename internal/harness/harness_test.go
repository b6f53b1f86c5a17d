package harness

import (
	"strings"
	"testing"

	"fetchphi/internal/memsim"
)

// fakeLock is a trivially correct mutex for exercising the runner: a
// test-and-set word with await-based retry.
type fakeLock struct {
	lock memsim.Var
}

func newFakeLock(m *memsim.Machine) Algorithm {
	return &fakeLock{lock: m.NewVar("fake.lock", memsim.HomeGlobal, 0)}
}

func (f *fakeLock) Name() string { return "fake" }

func (f *fakeLock) Acquire(p *memsim.Proc) {
	for {
		if p.RMW(f.lock, func(memsim.Word) memsim.Word { return 1 }) == 0 {
			return
		}
		p.AwaitEq(f.lock, 0)
	}
}

func (f *fakeLock) Release(p *memsim.Proc) { p.Write(f.lock, 0) }

// brokenLock grants immediately without excluding anyone.
type brokenLock struct{}

func newBrokenLock(*memsim.Machine) Algorithm { return brokenLock{} }

func (brokenLock) Name() string           { return "broken" }
func (brokenLock) Acquire(p *memsim.Proc) {}
func (brokenLock) Release(p *memsim.Proc) {}

// stuckLock never grants.
type stuckLock struct {
	never memsim.Var
}

func newStuckLock(m *memsim.Machine) Algorithm {
	return &stuckLock{never: m.NewVar("never", memsim.HomeGlobal, 0)}
}

func (s *stuckLock) Name() string           { return "stuck" }
func (s *stuckLock) Acquire(p *memsim.Proc) { p.AwaitTrue(s.never) }
func (s *stuckLock) Release(*memsim.Proc)   {}

func TestRunHappyPath(t *testing.T) {
	met, err := Run(newFakeLock, Workload{Model: memsim.CC, N: 4, Entries: 6, CSOps: 2, NCSOps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if met.Result.CSEntries != 24 {
		t.Fatalf("CSEntries = %d", met.Result.CSEntries)
	}
	if met.MeanRMR <= 0 || met.WorstRMR <= 0 {
		t.Fatalf("metrics not populated: %+v", met)
	}
}

func TestRunDetectsExclusionFailure(t *testing.T) {
	_, err := Run(newBrokenLock, Workload{Model: memsim.CC, N: 3, Entries: 4, CSOps: 1, Seed: 2})
	if err == nil {
		t.Fatal("broken lock passed")
	}
	if !strings.Contains(err.Error(), "mutual exclusion") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	_, err := Run(newStuckLock, Workload{Model: memsim.CC, N: 2, Entries: 1, Seed: 0})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("stuck lock not reported as deadlock: %v", err)
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	if _, err := Run(newFakeLock, Workload{Model: memsim.CC, N: 0, Entries: 5}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := Run(newFakeLock, Workload{Model: memsim.CC, N: 2, Entries: 0}); err == nil {
		t.Fatal("accepted Entries=0")
	}
}

func TestVerifyPassesAndFails(t *testing.T) {
	if err := Verify(newFakeLock, 3, 4, 5); err != nil {
		t.Fatalf("correct lock failed Verify: %v", err)
	}
	if err := Verify(newBrokenLock, 3, 4, 5); err == nil {
		t.Fatal("broken lock passed Verify")
	}
}

func TestCheckPassesAndFails(t *testing.T) {
	if _, err := CheckSharded(newFakeLock, 2, 1, ExploreOptions{Preemptions: 2, MaxRuns: 50_000}); err != nil {
		t.Fatalf("correct lock failed CheckSharded: %v", err)
	}
	if _, err := CheckSharded(newBrokenLock, 2, 1, ExploreOptions{Preemptions: 2, MaxRuns: 50_000}); err == nil {
		t.Fatal("broken lock passed CheckSharded")
	}
}

func TestBypassMetricReflectsOvertaking(t *testing.T) {
	// With a TAS lock and a random scheduler, some process is
	// overtaken at least once under contention.
	met, err := Run(newFakeLock, Workload{Model: memsim.CC, N: 4, Entries: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if met.MaxBypass == 0 {
		t.Error("no bypass recorded under contention — metric suspicious")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := Table{
		ID:      "T1",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "long-header", "x"},
	}
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("10", "veryverylongcell", "30")
	tbl.Notes = append(tbl.Notes, "a note")
	out := tbl.String()
	for _, want := range []string{"T1 — demo", "claim: c", "long-header", "veryverylongcell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Header and rows align: the "x" column starts at the same offset
	// everywhere.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	idx := strings.Index(lines[2], "x")
	if strings.Index(lines[4], "3") != idx {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestCellHelpers(t *testing.T) {
	if Itoa(42) != "42" || Ftoa(1.25) != "1.2" && Ftoa(1.25) != "1.3" {
		t.Fatal("cell helpers wrong")
	}
}
