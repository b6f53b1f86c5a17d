// Command report is the observability driver: it runs any subset of
// the experiments (E1–E10) through the parallel sweep engine, writes
// one BENCH_<experiment>.json artifact per experiment, and — when a
// baseline directory is given — gates the run against the prior
// artifacts, exiting non-zero on any RMR regression.
//
// Usage:
//
//	report [-experiments all|E1,E2,...] [-quick] [-seed N] [-workers W]
//	       [-out dir] [-baseline dir] [-degrade F] [-flight SPANS]
//	       [-progress] [-claims=false] [-v]
//
// The simulation experiments run concurrently (each one shards its
// cells across its own sweep-engine pool); wall-clock experiments
// (E9) run afterwards, sequentially, so simulation load does not
// pollute their timings. -v prints every experiment's tables once all
// of them are done, in registry order.
//
// The -degrade flag is a self-test knob: it inflates the recorded RMR
// metrics by the given factor before artifacts are written, so CI can
// verify the regression gate actually fires (run once to produce a
// baseline, run again with -degrade 2 -baseline <dir> and expect a
// non-zero exit).
//
// Every simulated sweep cell has a flight recorder (a bounded ring of
// its most recent spans; -flight sets the per-process span window, 0
// disables). When a cell fails — invariant violation, deadlock,
// starvation timeout — or the regression gate flags it, the recorder's
// window is dumped to <out>/traces/TRACE_<cell>.json as a
// fetchphi.trace/v1 artifact; convert it with `tracectl convert` and
// load the result in Perfetto. Cells are deterministic, so a cell on
// the default scheduler runs unrecorded and is replayed with its
// recorder on only if it is dumped; cells with their own scheduler
// (E7's adversarial ones) record as they run.
//
// After the sweep, the paper-claims registry (internal/claims) is
// evaluated over the output directory's artifacts and written as
// <out>/CLAIMS.json plus an HTML report <out>/claims.html; a
// contradicted claim fails the run, claims whose experiments weren't
// swept stay inconclusive. -claims=false skips this. -progress streams
// per-cell sweep progress lines to stderr (observation-only: it never
// changes measured metrics).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"fetchphi/internal/claims"
	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
	"fetchphi/internal/trace"
)

// expRun is one experiment's outcome: the artifact and tables it
// produced, or the panic that aborted it.
type expRun struct {
	id       string
	artifact *obs.Artifact
	tables   []harness.Table
	err      error
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// selectExperiments resolves the -experiments flag value against the
// registry: "all" (case-insensitive) selects everything, otherwise a
// comma-separated list of ids.
func selectExperiments(which string, registry []experiments.Experiment) (map[string]bool, error) {
	selected := make(map[string]bool)
	if strings.EqualFold(which, "all") {
		for _, e := range registry {
			selected[e.ID] = true
		}
		return selected, nil
	}
	known := make(map[string]string)
	for _, e := range registry {
		known[strings.ToLower(e.ID)] = e.ID
	}
	for _, tok := range strings.Split(which, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		id, ok := known[strings.ToLower(tok)]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (want E1..E10 or all)", tok)
		}
		selected[id] = true
	}
	if len(selected) == 0 {
		return nil, errors.New("no experiments selected")
	}
	return selected, nil
}

// run is the testable entry point: parses argv, executes, and returns
// the process exit code (0 ok, 1 failure/regression, 2 usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which    = fs.String("experiments", "all", "comma-separated experiment ids (E1..E10) or 'all'")
		quick    = fs.Bool("quick", false, "trim the sweeps (small N only)")
		seed     = fs.Int64("seed", 1, "scheduler seed family")
		workers  = fs.Int("workers", 0, "sweep-engine workers per experiment (0 = GOMAXPROCS)")
		out      = fs.String("out", "bench", "directory to write BENCH_<experiment>.json artifacts into")
		baseline = fs.String("baseline", "", "directory of prior artifacts to gate against (empty = no gate)")
		degrade  = fs.Float64("degrade", 1, "self-test: inflate recorded RMR metrics by this factor")
		flight   = fs.Int("flight", trace.DefaultSpanLimit, "flight-recorder window in spans per process (0 = off)")
		progress = fs.Bool("progress", false, "stream per-cell sweep progress to stderr")
		doClaims = fs.Bool("claims", true, "evaluate the paper-claims registry over the output artifacts")
		verbose  = fs.Bool("v", false, "print the rendered tables, in registry order, after the sweep")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *degrade <= 0 {
		fmt.Fprintln(stderr, "report: -degrade must be positive")
		return 2
	}
	if *flight < 0 {
		fmt.Fprintln(stderr, "report: -flight must be non-negative")
		return 2
	}

	registry := experiments.Registry()
	selected, err := selectExperiments(*which, registry)
	if err != nil {
		fmt.Fprintf(stderr, "report: %v\n", err)
		return 2
	}
	if *baseline != "" {
		if st, err := os.Stat(*baseline); err != nil || !st.IsDir() {
			fmt.Fprintf(stderr, "report: baseline directory %s does not exist (produce one with -out %s first)\n",
				*baseline, *baseline)
			return 2
		}
	}

	commit := obs.GitCommit()
	params := obs.Params{Quick: *quick, Seed: *seed, Workers: *workers}
	var fl *flightLog
	if *flight > 0 {
		fl = newFlightLog(*flight, *out)
	}
	var mu sync.Mutex
	runOne := func(e experiments.Experiment) expRun {
		run := expRun{id: e.ID}
		art := &obs.Artifact{
			Experiment: e.ID,
			CreatedBy:  "cmd/report",
			Commit:     commit,
			Params:     params,
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					run.err = fmt.Errorf("%v", r)
				}
			}()
			opts := experiments.Opts{
				Quick: *quick, Seed: *seed, Workers: *workers,
				Record: func(c obs.Cell) { art.Cells = append(art.Cells, c) },
			}
			if *progress {
				// Stderr lines, mutex-serialized across the concurrent
				// experiments and their sweep workers. Observation-only:
				// TestSweepProgressObservationOnly proves the hook cannot
				// change measured metrics.
				opts.Progress = func(ev harness.ProgressEvent) {
					if !ev.Start {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					fmt.Fprintf(stderr, "progress: %s %d/%d running %s/%s N=%d seed=%d\n",
						e.ID, ev.Done, ev.Total, ev.Cell.Algorithm,
						ev.Cell.Workload.Model, ev.Cell.Workload.N, ev.Cell.Workload.Seed)
				}
			}
			if fl != nil && !e.WallClock {
				opts.Sink = fl.attach
				opts.OnFailure = func(r harness.CellResult) {
					path, err := fl.dumpFailure(r)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						fmt.Fprintf(stderr, "report: %v\n", err)
					} else if path != "" {
						fmt.Fprintf(stderr, "report: %s: wrote flight recorder %s\n", e.ID, path)
					}
				}
			}
			run.tables = e.Build(opts)
			for i := range run.tables {
				art.Tables = append(art.Tables, run.tables[i].JSON())
			}
		}()
		run.artifact = art
		return run
	}

	// The simulation experiments run concurrently, one goroutine per
	// experiment; within each, the sweep engine shards cells across its
	// own worker pool. Record hooks are per-experiment closures, called
	// sequentially from that experiment's goroutine, so no locking is
	// needed around the cell slices. Wall-clock experiments (E9) wait
	// until the simulations are done, then run one at a time: their
	// ns/op numbers are only meaningful on an otherwise idle machine.
	slots := make([]expRun, len(registry))
	var wg sync.WaitGroup
	for i, e := range registry {
		if !selected[e.ID] || e.WallClock {
			continue
		}
		i, e := i, e
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots[i] = runOne(e)
		}()
	}
	wg.Wait()
	runs := make([]expRun, 0, len(selected))
	for i, e := range registry {
		if !selected[e.ID] {
			continue
		}
		if e.WallClock {
			slots[i] = runOne(e)
		}
		runs = append(runs, slots[i])
	}
	// -v prints the tables once the sweep is done, in registry order,
	// however the concurrent experiments happened to finish.
	if *verbose {
		for _, r := range runs {
			for i := range r.tables {
				r.tables[i].Format(stdout)
				fmt.Fprintln(stdout)
			}
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })

	failed := false
	for _, r := range runs {
		if r.err != nil {
			fmt.Fprintf(stderr, "report: %s FAILED: %v\n", r.id, r.err)
			failed = true
		}
	}

	// Apply the self-test degradation before writing, so the degraded
	// artifacts are what the gate sees (and what a later run would
	// compare against).
	if *degrade != 1 {
		for _, r := range runs {
			for i := range r.artifact.Cells {
				c := &r.artifact.Cells[i]
				if c.WallClock {
					continue
				}
				c.MeanRMR *= *degrade
				c.WorstRMR = int64(math.Ceil(float64(c.WorstRMR) * *degrade))
			}
		}
	}

	for _, r := range runs {
		if r.err != nil {
			continue
		}
		path := filepath.Join(*out, obs.ArtifactName(r.id))
		if err := r.artifact.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "%s: %d cells, %d tables -> %s\n",
			r.id, len(r.artifact.Cells), len(r.artifact.Tables), path)
	}

	if *baseline != "" {
		var regressions []obs.Regression
		for _, r := range runs {
			if r.err != nil {
				continue
			}
			basePath := filepath.Join(*baseline, obs.ArtifactName(r.id))
			base, err := obs.ReadArtifact(basePath)
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					fmt.Fprintf(stdout, "%s: no baseline at %s (skipping gate)\n", r.id, basePath)
					continue
				}
				fmt.Fprintf(stderr, "report: %v\n", err)
				failed = true
				continue
			}
			regressions = append(regressions, obs.Compare(base, r.artifact, nil)...)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(stderr, "\nregression gate FAILED (%d):\n", len(regressions))
			for _, reg := range regressions {
				fmt.Fprintf(stderr, "  %s\n", reg)
			}
			// Dump the flight-recorder window of every regressed cell,
			// once per cell (a cell can regress on several metrics).
			if fl != nil {
				dumped := make(map[string]bool)
				for _, reg := range regressions {
					if dumped[reg.Cell] {
						continue
					}
					dumped[reg.Cell] = true
					path, err := fl.dump(reg.Cell, reg.String())
					if err != nil {
						fmt.Fprintf(stderr, "report: %v\n", err)
					} else if path != "" {
						fmt.Fprintf(stderr, "report: %s: wrote flight recorder %s\n", reg.Experiment, path)
					}
				}
			}
			failed = true
		} else if !failed {
			fmt.Fprintln(stdout, "regression gate passed")
		}
	}

	// Claims conformance: after every sweep, re-evaluate the paper-claims
	// registry over whatever the output directory now holds and write the
	// fetchphi.claims/v1 artifact + HTML report next to the bench
	// artifacts. Claims whose experiments weren't swept stay
	// inconclusive (a note, not a failure); a contradicted claim fails
	// the run by name.
	if *doClaims {
		if bench, err := claims.LoadBenchDir(*out); err != nil {
			fmt.Fprintf(stderr, "report: %v\n", err)
			failed = true
		} else {
			art := claims.Evaluate(bench)
			art.CreatedBy = "cmd/report"
			art.Commit = commit
			art.BenchDir = *out
			claimsPath := filepath.Join(*out, claims.ArtifactFileName)
			htmlPath := filepath.Join(*out, "claims.html")
			if err := art.WriteFile(claimsPath); err != nil {
				fmt.Fprintf(stderr, "report: %v\n", err)
				failed = true
			} else if err := claims.WriteHTML(art, htmlPath); err != nil {
				fmt.Fprintf(stderr, "report: %v\n", err)
				failed = true
			} else {
				reproduced := 0
				for _, c := range art.Claims {
					switch c.Verdict {
					case claims.Reproduced:
						reproduced++
					case claims.NotReproduced:
						fmt.Fprintf(stderr, "report: claim %s NOT reproduced: %s\n", c.ID, c.Measured)
						failed = true
					case claims.Inconclusive:
						fmt.Fprintf(stdout, "claims: %s inconclusive (%s)\n", c.ID, c.Measured)
					}
				}
				fmt.Fprintf(stdout, "claims: %d/%d reproduced -> %s, %s\n",
					reproduced, len(art.Claims), claimsPath, htmlPath)
			}
		}
	}

	if failed {
		return 1
	}
	return 0
}
