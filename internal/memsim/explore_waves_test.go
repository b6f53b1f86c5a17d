package memsim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// rangeExec executes waves through the exported range API, the way an
// external wave driver does; its schedules may fail.
func rangeExec(t testing.TB, e *Explorer) func(Frontier) []RangeOutcome {
	return func(f Frontier) []RangeOutcome { return []RangeOutcome{runRange(t, e, f.Wave)} }
}

// runRange runs a wave through RunScheduleRange and fails the test if
// the range returned an error. Its schedules may fail.
func runRange(t testing.TB, e *Explorer, w Wave) RangeOutcome {
	t.Helper()
	out, err := e.RunScheduleRange(w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rangeOutcomes is runRange for a wave that must pass: it also fails
// the test if any schedule failed.
func rangeOutcomes(t testing.TB, e *Explorer, w Wave) RangeOutcome {
	t.Helper()
	out := runRange(t, e, w)
	for _, f := range out.Failures {
		t.Fatalf("depth %d index %d: %v", w.Depth, f.Index, f.Err)
	}
	return out
}

// rangeWaves returns the first depth+1 waves of e's exploration, root
// first, each built from the one before through RunScheduleRange. No
// schedule of the waves before the last may fail.
func rangeWaves(t testing.TB, e *Explorer, depth int) []Wave {
	t.Helper()
	waves := []Wave{RootWave()}
	for d := 0; d < depth; d++ {
		waves = append(waves, nextWave(waves[d], []RangeOutcome{rangeOutcomes(t, e, waves[d])}))
	}
	return waves
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
					maxRuns = math.MaxInt
				}
				var frontiers []Frontier
				got, err := ExploreWaves(Frontier{Wave: RootWave()}, maxRuns, rangeExec(t, e), func(f Frontier) error {
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
					got, err := ExploreWaves(f, maxRuns, rangeExec(t, e), nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(got, ref); err != nil {
						t.Fatalf("resumed from frontier %d (depth %d): %v", i, f.Wave.Depth, err)
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
	exec := func(f Frontier) []RangeOutcome {
		waves++
		return []RangeOutcome{rangeOutcomes(t, e, f.Wave)}
	}
	_, err := ExploreWaves(Frontier{Wave: RootWave()}, math.MaxInt, exec, func(f Frontier) error {
		if f.Wave.Depth != 1 {
			t.Errorf("first boundary at depth %d, want 1", f.Wave.Depth)
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

// splitRange cuts r into two ranges, the second starting at its
// schedule k, each with its own children and failures.
func splitRange(r RangeOutcome, k int) []RangeOutcome {
	off := 0
	for _, c := range r.Children[:k] {
		off += c
	}
	a := RangeOutcome{Lo: r.Lo, Children: r.Children[:k], Appended: r.Appended[:off]}
	b := RangeOutcome{Lo: r.Lo + k, Children: r.Children[k:], Appended: r.Appended[off:]}
	for _, f := range r.Failures {
		if f.Index < k {
			a.Failures = append(a.Failures, f)
		} else {
			b.Failures = append(b.Failures, Failure{Index: f.Index - k, Err: f.Err})
		}
	}
	return []RangeOutcome{a, b}
}

// TestExploreWavesRejectsBadTiling: outcome ranges that do not tile the
// wave, or whose arrays do not fit each other, break the merge's
// contract and are reported as an error, not merged; the same ranges
// left intact are merged exactly as Explorer.Run merges its own.
func TestExploreWavesRejectsBadTiling(t *testing.T) {
	e := &Explorer{Build: tasLockMachineN(2, 2), MaxPreemptions: 2}
	ref := e.Run()
	wave := rangeWaves(t, e, 1)[1]
	from := Frontier{Wave: wave, Runs: 1, DepthRuns: []int{1}}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		mutate func(out []RangeOutcome)
	}{
		{"intact", func([]RangeOutcome) {}},
		{"gap", func(out []RangeOutcome) { out[1].Lo++ }},
		{"overlap", func(out []RangeOutcome) { out[1].Lo-- }},
		{"first-not-at-zero", func(out []RangeOutcome) { out[0].Lo = 1 }},
		{"counts-short", func(out []RangeOutcome) {
			last := &out[1]
			n := len(last.Children) - 1
			last.Appended = last.Appended[:len(last.Appended)-last.Children[n]]
			last.Children = last.Children[:n]
		}},
		{"counts-long", func(out []RangeOutcome) { out[1].Children = append(out[1].Children, 0) }},
		{"counts-not-summing", func(out []RangeOutcome) { out[0].Children[0]++ }},
		{"count-negative", func(out []RangeOutcome) {
			out[0].Children[0] -= out[0].Children[0] + 1
			out[0].Children[1] += out[0].Children[0]
		}},
		{"failure-outside", func(out []RangeOutcome) {
			out[0].Failures = []Failure{{Index: len(out[0].Children), Err: boom}}
		}},
		{"failure-negative", func(out []RangeOutcome) { out[1].Failures = []Failure{{Index: -1, Err: boom}} }},
		{"failures-repeated", func(out []RangeOutcome) { out[0].Failures = []Failure{{Index: 1, Err: boom}, {Index: 1, Err: boom}} }},
		{"failure-without-error", func(out []RangeOutcome) { out[0].Failures = []Failure{{Index: 0}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(f Frontier) []RangeOutcome {
				out := rangeOutcomes(t, e, f.Wave)
				if f.Wave.Depth != 1 {
					return []RangeOutcome{out}
				}
				if len(out.Children) < 4 || out.Children[0] == 0 || out.Children[1] == 0 || out.Children[len(out.Children)-1] == 0 {
					t.Fatalf("depth-1 wave of %d schedules with children %v cannot show every break", len(out.Children), out.Children)
				}
				split := splitRange(out, len(out.Children)/2)
				tc.mutate(split)
				return split
			}
			got, err := ExploreWaves(from, math.MaxInt, exec, nil)
			if tc.name == "intact" {
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(got, ref); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatalf("ranges merged into %+v", got)
			}
			t.Log(err)
		})
	}
}
