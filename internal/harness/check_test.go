package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fetchphi/internal/memsim"
)

// TestCheckShardedIdenticalAcrossWorkers: the per-model exploration
// results and the merged error of a 2- and an 8-worker check are
// bit-identical to the 1-worker reference — on a correct lock and on a
// broken one.
func TestCheckShardedIdenticalAcrossWorkers(t *testing.T) {
	for _, fx := range []struct {
		name     string
		build    Builder
		wantFail bool
	}{
		{"correct", newFakeLock, false},
		{"broken", newBrokenLock, true},
	} {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			ref, refErr := CheckSharded(fx.build, 2, 2, ExploreOptions{Preemptions: 2, Workers: 1})
			if (refErr != nil) != fx.wantFail {
				t.Fatalf("reference verdict: %v", refErr)
			}
			for _, workers := range []int{2, 8} {
				got, err := CheckSharded(fx.build, 2, 2, ExploreOptions{Preemptions: 2, Workers: workers})
				if (err != nil) != fx.wantFail {
					t.Fatalf("workers=%d verdict: %v", workers, err)
				}
				if err != nil && err.Error() != refErr.Error() {
					t.Fatalf("workers=%d error %q, want %q", workers, err, refErr)
				}
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(ref))
				}
				for i := range got {
					g, r := got[i], ref[i]
					if g.Model != r.Model || g.Result.Runs != r.Result.Runs ||
						g.Result.Exhausted != r.Result.Exhausted ||
						!reflect.DeepEqual(g.Result.DepthRuns, r.Result.DepthRuns) ||
						!reflect.DeepEqual(g.Result.FailingSchedule, r.Result.FailingSchedule) {
						t.Fatalf("workers=%d model %v diverged:\n got %+v\nwant %+v", workers, g.Model, g.Result, r.Result)
					}
				}
			}
		})
	}
}

// TestCheckShardedCoversBothModelsByDefault: the reports come back as
// CC then DSM, exhausted on the correct fixture.
func TestCheckShardedCoversBothModelsByDefault(t *testing.T) {
	reports, err := CheckSharded(newFakeLock, 2, 1, ExploreOptions{Preemptions: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []memsim.Model{memsim.CC, memsim.DSM}
	if !reflect.DeepEqual(CheckModels(), want) {
		t.Fatalf("CheckModels() = %v, want %v", CheckModels(), want)
	}
	if len(reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(reports), len(want))
	}
	for i, r := range reports {
		if r.Model != want[i] {
			t.Fatalf("report %d is %v, want %v", i, r.Model, want[i])
		}
		if !r.Result.Exhausted || r.Result.Runs == 0 {
			t.Fatalf("model %v: %+v", r.Model, r.Result)
		}
	}
}

// TestCheckShardedReportsDeterministicModel: when both models fail,
// the merged error names CC, the first model in CheckModels order, not
// whichever goroutine lost the race.
func TestCheckShardedReportsDeterministicModel(t *testing.T) {
	for rep := 0; rep < 3; rep++ {
		reports, err := CheckSharded(newBrokenLock, 2, 1, ExploreOptions{Preemptions: 2, Workers: 4})
		if err == nil {
			t.Fatal("broken lock passed")
		}
		for _, r := range reports {
			if r.Result.Err == nil {
				t.Fatalf("model %v passed: the fixture must fail on both models", r.Model)
			}
		}
		if !strings.Contains(err.Error(), "model CC") {
			t.Fatalf("rep %d: error does not name the first failing model in order: %v", rep, err)
		}
	}
}

// TestCheckZeroPreemptionsIsHonest is the harness half of the
// -preemptions 0 regression: an explicit zero must explore exactly one
// schedule per model instead of silently promoting to the default
// bound — which is also why the always-granting broken lock passes a
// non-preemptive check (the serialized schedule never overlaps entry
// sections) but fails the K=2 one above.
func TestCheckZeroPreemptionsIsHonest(t *testing.T) {
	reports, err := CheckSharded(newFakeLock, 2, 2, ExploreOptions{Preemptions: 0, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Result.Runs != 1 || !r.Result.Exhausted || !reflect.DeepEqual(r.Result.DepthRuns, []int{1}) {
			t.Fatalf("model %v: zero-preemption check ran %+v, want exactly one schedule", r.Model, r.Result)
		}
	}
	if _, err := CheckSharded(newFakeLock, 2, 2, ExploreOptions{Preemptions: 0, MaxRuns: 100}); err != nil {
		t.Fatalf("CheckSharded with preemptions=0: %v", err)
	}
	// The sharpest probe: under the former silent 0→default
	// promotion this failed (the default bound exposes the broken
	// lock); an honest non-preemptive check must pass it.
	if _, err := CheckSharded(newBrokenLock, 2, 2, ExploreOptions{Preemptions: 0, MaxRuns: 100}); err != nil {
		t.Fatalf("non-preemptive check of the broken lock was not non-preemptive: %v", err)
	}
	if _, err := CheckSharded(newBrokenLock, 2, 2, ExploreOptions{Preemptions: 2, MaxRuns: 50_000}); err == nil {
		t.Fatal("K=2 check no longer exposes the broken lock")
	}
}

// TestCheckExplorerWorkersDefault: Workers 0 selects GOMAXPROCS, and
// the explorer's result and every wave's range outcome are identical at
// Workers 0, 1 and 4, on a correct lock and on a broken one.
func TestCheckExplorerWorkersDefault(t *testing.T) {
	if e := CheckExplorer(newFakeLock, memsim.CC, 2, 2, ExploreOptions{}); e.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers 0 built an explorer of %d workers, want GOMAXPROCS %d", e.Workers, runtime.GOMAXPROCS(0))
	}
	// waves runs the exploration through RunScheduleRange and returns
	// its result and each wave's outcome, errors as text.
	waves := func(e *memsim.Explorer) (memsim.ExploreResult, string) {
		var outs []memsim.RangeOutcome
		res, err := memsim.ExploreWaves(memsim.Frontier{Wave: memsim.RootWave()}, e.MaxRuns, func(f memsim.Frontier) []memsim.RangeOutcome {
			out, err := e.RunScheduleRange(f.Wave)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
			return []memsim.RangeOutcome{out}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, fmt.Sprintf("%+v", outs)
	}
	for _, b := range []Builder{newFakeLock, newBrokenLock} {
		for _, model := range CheckModels() {
			var refRes memsim.ExploreResult
			var refOuts string
			for _, workers := range []int{1, 0, 4} {
				opts := ExploreOptions{Preemptions: 2, Workers: workers}
				res := CheckExplorer(b, model, 2, 2, opts).Run()
				got, outs := waves(CheckExplorer(b, model, 2, 2, opts))
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", res) {
					t.Fatalf("%v at %d workers: Run gave %+v, the wave loop %+v", model, workers, res, got)
				}
				if workers == 1 {
					refRes, refOuts = res, outs
					continue
				}
				if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", refRes) {
					t.Errorf("%v at %d workers: %+v, want %+v", model, workers, res, refRes)
				}
				if outs != refOuts {
					t.Errorf("%v at %d workers: the range outcomes differ from 1 worker's", model, workers)
				}
			}
		}
	}
}

// TestCheckShardedProgressObservationOnly: the per-model progress hook
// sees both models without changing any result.
func TestCheckShardedProgressObservationOnly(t *testing.T) {
	ref, _ := CheckSharded(newFakeLock, 2, 1, ExploreOptions{Preemptions: 2, Workers: 2})
	var mu sync.Mutex
	seen := make(map[string]int)
	got, err := CheckSharded(newFakeLock, 2, 1, ExploreOptions{
		Preemptions: 2, Workers: 2, ProgressEvery: 5,
		Progress: func(model memsim.Model, p memsim.ExploreProgress) {
			mu.Lock()
			seen[model.String()]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen["CC"] == 0 || seen["DSM"] == 0 {
		t.Fatalf("progress hook missed a model: %v", seen)
	}
	for i := range got {
		if got[i].Result.Runs != ref[i].Result.Runs || !reflect.DeepEqual(got[i].Result.DepthRuns, ref[i].Result.DepthRuns) {
			t.Fatalf("progress hook changed the result for %v", got[i].Model)
		}
	}
}
