package memsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// rangeExec executes waves through the exported range API, the way an
// external wave driver does.
func rangeExec(e *Explorer) func(Frontier) []ScheduleOutcome {
	return func(f Frontier) []ScheduleOutcome { return e.RunScheduleRange(f.Wave) }
}

// sameResult compares two exploration results field by field; errors
// compare by message.
func sameResult(got, want ExploreResult) error {
	if got.Runs != want.Runs || got.Exhausted != want.Exhausted ||
		!reflect.DeepEqual(got.DepthRuns, want.DepthRuns) ||
		!reflect.DeepEqual(got.FailingSchedule, want.FailingSchedule) ||
		fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// TestExploreWavesResumeMatchesRun: every frontier ExploreWaves hands
// to next is a complete resume point — continuing from any of them
// gives exactly the uninterrupted Explorer.Run result, on passing,
// failing and capped spaces, sequential and sharded.
func TestExploreWavesResumeMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func() *Machine
		maxRuns int
	}{
		{"passing", tasLockMachineN(2, 2), 0},
		{"failing", brokenLockMachineN(2, 2), 0},
		{"cap1", tasLockMachineN(2, 2), 1},
		{"cap2", tasLockMachineN(2, 2), 2},
		{"cap7", tasLockMachineN(2, 2), 7},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				e := &Explorer{Build: tc.build, MaxPreemptions: 2, MaxRuns: tc.maxRuns, Workers: workers}
				ref := e.Run()
				maxRuns := tc.maxRuns
				if maxRuns == 0 {
					maxRuns = 200_000
				}
				var frontiers []Frontier
				got, err := ExploreWaves(Frontier{Wave: RootWave()}, maxRuns, rangeExec(e), func(f Frontier) error {
					frontiers = append(frontiers, f)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(got, ref); err != nil {
					t.Fatalf("uninterrupted: %v", err)
				}
				if len(frontiers) == 0 {
					t.Fatal("next never fired")
				}
				for i, f := range frontiers {
					got, err := ExploreWaves(f, maxRuns, rangeExec(e), nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(got, ref); err != nil {
						t.Fatalf("resumed from frontier %d (depth %d): %v", i, f.Depth, err)
					}
				}
			})
		}
	}
}

// TestExploreWavesNextErrorStops: an error from next ends the loop on
// that wave boundary — no further wave executes — and is returned.
func TestExploreWavesNextErrorStops(t *testing.T) {
	e := &Explorer{Build: tasLockMachineN(2, 2), MaxPreemptions: 2}
	stop := errors.New("stop")
	waves := 0
	exec := func(f Frontier) []ScheduleOutcome {
		waves++
		return e.RunScheduleRange(f.Wave)
	}
	_, err := ExploreWaves(Frontier{Wave: RootWave()}, 200_000, exec, func(f Frontier) error {
		if f.Depth != 1 {
			t.Errorf("first boundary at depth %d, want 1", f.Depth)
		}
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the next error", err)
	}
	if waves != 1 {
		t.Fatalf("%d waves executed after next stopped the loop, want 1", waves)
	}
}

// TestExploreWavesShortOutcomes: an executor that returns fewer
// outcomes than the wave has schedules breaks the merge's contract and
// is reported as an error, not merged.
func TestExploreWavesShortOutcomes(t *testing.T) {
	e := &Explorer{Build: tasLockMachineN(2, 2), MaxPreemptions: 2}
	exec := func(f Frontier) []ScheduleOutcome {
		outs := e.RunScheduleRange(f.Wave)
		return outs[:len(outs)-1]
	}
	if _, err := ExploreWaves(Frontier{Wave: RootWave()}, 200_000, exec, nil); err == nil {
		t.Fatal("short outcome slice accepted")
	}
}
