// Command explore model-checks any algorithm in the repository with
// the CHESS-style preemption-bounded explorer: every schedule of a
// small configuration with up to K forced context switches, on both
// memory models, checking mutual exclusion, deadlock freedom, and
// completion. The memory models run concurrently, and each model's
// schedule waves are sharded across a work-stealing worker pool — the
// verdict (runs, exhaustion, canonical failing schedule) is
// bit-identical for every worker count; workers change wall-clock
// time only.
//
// Usage:
//
//	explore [-alg g-dsm] [-n 2] [-entries 2] [-preemptions 2]
//	        [-maxruns 500000] [-workers 0] [-progress]
//	        [-out EXPLORE_alg.json] [-require-exhausted] [-list]
//
// -preemptions 0 is honest: it requests an exactly non-preemptive
// check (one schedule per model), not the default bound.
//
// With -out, the run is recorded as a fetchphi.explore/v3 JSON
// artifact (schedules explored, per-depth run counts, exhaustion,
// wall time, throughput) so model-check capacity is tracked like
// bench and claims artifacts; the artifact is written even when the
// check fails, preserving the canonical failing schedule for replay.
// -require-exhausted turns incomplete coverage (MaxRuns hit before
// the space was exhausted) into exit code 1, which is how CI gates on
// model-check capacity. Exit codes: 0 ok, 1 failure or unmet
// -require-exhausted, 2 usage error.
//
// Checkpoints and capacity artifacts belong to the fleet: `fleet run
// -checkpoint ck.json -capacity cap.json` runs the same check through
// an in-process coordinator that persists every completed wave.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses argv, executes, and returns
// the process exit code (0 ok, 1 check failure or coverage shortfall,
// 2 usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg         = fs.String("alg", "g-dsm", "algorithm to check (see -list)")
		n           = fs.Int("n", 2, "number of processes")
		entries     = fs.Int("entries", 2, "critical-section entries per process")
		preemptions = fs.Int("preemptions", 2, "preemption bound K (0 = exactly non-preemptive)")
		maxRuns     = fs.Int("maxruns", harness.DefaultCheckMaxRuns, "cap on explored schedules per model")
		workers     = fs.Int("workers", 0, "wave-shard workers per model (0 = GOMAXPROCS)")
		progress    = fs.Bool("progress", false, "stream exploration progress to stderr (observation-only)")
		out         = fs.String("out", "", "write a fetchphi.explore/v3 artifact to this path")
		requireFull = fs.Bool("require-exhausted", false, "exit 1 unless every model's schedule space was exhausted within -maxruns")
		list        = fs.Bool("list", false, "list known algorithms and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, name := range experiments.AlgorithmNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *n < 1 || *entries < 1 || *preemptions < 0 || *maxRuns < 1 || *workers < 0 {
		fmt.Fprintln(stderr, "explore: -n, -entries, -maxruns must be positive; -preemptions and -workers non-negative")
		return 2
	}
	builder, err := experiments.Algorithm(*alg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	w := *workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}

	fmt.Fprintf(stdout, "exploring %s: N=%d, %d entries each, ≤%d preemptions, both models, %d workers\n",
		*alg, *n, *entries, *preemptions, w)
	opts := harness.ExploreOptions{Preemptions: *preemptions, MaxRuns: *maxRuns, Workers: w}
	//fetchphilint:ignore determinism wall-clock capacity reporting, not a simulated metric
	start := time.Now()
	if *progress {
		var mu sync.Mutex
		opts.ProgressEvery = 10_000
		opts.Progress = func(model memsim.Model, p memsim.ExploreProgress) {
			//fetchphilint:ignore determinism progress rate display is wall-clock by design
			elapsed := time.Since(start).Seconds()
			rate := 0.0
			if elapsed > 0 {
				rate = float64(p.Runs) / elapsed
			}
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, "progress: %v depth=%d frontier=%d runs=%d (%.0f/s)\n",
				model, p.Depth, p.Frontier, p.Runs, rate)
		}
	}
	reports, checkErr := harness.CheckSharded(builder, *n, *entries, opts)
	//fetchphilint:ignore determinism wall-clock capacity reporting, not a simulated metric
	wall := time.Since(start)

	art := &obs.ExploreArtifact{
		Schema:    obs.ExploreSchema,
		Algorithm: *alg,
		CreatedBy: "cmd/explore",
		Commit:    obs.GitCommit(),
		N:         *n, Entries: *entries, Preemptions: *preemptions,
		MaxRuns: *maxRuns, Workers: w,
		WallMS: float64(wall.Microseconds()) / 1000,
	}
	for _, r := range reports {
		art.Models = append(art.Models, obs.ExploreRecord(r.Model, r.Result))
	}
	if secs := wall.Seconds(); secs > 0 {
		art.SchedulesPerSec = float64(art.TotalRuns()) / secs
	}
	if *out != "" {
		if err := art.WriteFile(*out); err != nil {
			fmt.Fprintf(stderr, "explore: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	obs.WriteCoverage(stdout, art.Models)
	if checkErr != nil {
		fmt.Fprintf(stderr, "FAIL after %v: %v\n", wall.Round(time.Millisecond), checkErr)
		return 1
	}
	if *requireFull && !art.AllExhausted() {
		fmt.Fprintf(stderr, "explore: schedule space not exhausted within %d runs per model (-require-exhausted)\n", *maxRuns)
		return 1
	}
	fmt.Fprintf(stdout, "OK: no violation, deadlock, or livelock in %d explored schedules (%v, %.0f/s)\n",
		art.TotalRuns(), wall.Round(time.Millisecond), art.SchedulesPerSec)
	return 0
}
