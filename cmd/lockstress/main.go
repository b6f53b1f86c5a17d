// Command lockstress drives the native spin-lock zoo under real
// goroutine load through the internal/stress harness — experiment E9's
// standalone driver, rebuilt as an observability tool. Beyond the
// throughput headline it reports per-acquisition latency quantiles
// (p50/p99/p999, exact until the reservoir overflows), lock handoff
// time, Jain's fairness index with a windowed fairness-drift minimum,
// and a windowed throughput timeline. Every run double-checks mutual
// exclusion by verifying that no increments of an unprotected counter
// were lost.
//
// Usage:
//
//	lockstress [-lock all|name,name,...] [-workers W[,W,...]] [-iters I]
//	           [-cswork K] [-rate R] [-window N]
//	           [-json] [-out STRESS.json]
//	           [-baseline STRESS.json] [-degrade 0.5] [-in STRESS.json]
//	           [-watch] [-interval 500ms] [-list]
//
// -workers takes a comma-separated sweep (default GOMAXPROCS); every
// (lock, workers) point builds a fresh lock sized for exactly that
// worker count, so sweeping past an array lock's capacity is
// impossible by construction. -rate selects the open loop: arrivals
// are scheduled at R acquisitions/sec across all workers and latency
// is measured from the scheduled arrival (coordinated-omission-free),
// so a lock that falls behind the offered load shows the backlog in
// its tail.
//
// Results serialize as a fetchphi.stress/v1 artifact (-out writes it,
// -json prints it). -baseline gates the run against a stored artifact:
// a throughput drop or acquire-p99 growth beyond -degrade exits 1.
// -in replays the gate over a stored artifact instead of running,
// which is how CI self-compares and how the gate is tested
// deterministically. -watch renders a refreshing terminal dashboard
// (per-run throughput sparkline, latency quantiles, fairness) while
// the sweep runs. Exit codes: 0 ok, 1 run failure or regression,
// 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fetchphi/internal/obs"
	"fetchphi/internal/stress"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// parseWorkers parses the -workers sweep ("4" or "1,2,4,8").
func parseWorkers(s string) ([]int, error) {
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("lockstress: -workers wants positive counts, got %q", part)
		}
		sweep = append(sweep, n)
	}
	if len(sweep) == 0 {
		return nil, fmt.Errorf("lockstress: -workers is empty")
	}
	return sweep, nil
}

// selectCases resolves the -lock flag against the zoo.
func selectCases(lock string) ([]stress.Case, error) {
	if strings.EqualFold(lock, "all") {
		return stress.Cases(), nil
	}
	var cases []stress.Case
	for _, name := range strings.Split(lock, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := stress.Find(name)
		if !ok {
			return nil, fmt.Errorf("lockstress: unknown lock %q (see -list)", name)
		}
		cases = append(cases, c)
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("lockstress: -lock selects nothing")
	}
	return cases, nil
}

// run is the testable entry point: parses argv, executes, and returns
// the process exit code (0 ok, 1 run failure or baseline regression,
// 2 usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lockstress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lock     = fs.String("lock", "all", "comma-separated locks to stress, or 'all' (see -list)")
		workers  = fs.String("workers", "", "comma-separated worker counts to sweep (default GOMAXPROCS)")
		iters    = fs.Int("iters", 200_000, "acquisitions per worker")
		cswork   = fs.Int("cswork", 0, "extra shared-memory work per critical section")
		rate     = fs.Float64("rate", 0, "open-loop arrival rate in acquisitions/sec across all workers (0 = closed loop)")
		window   = fs.Int("window", 0, "acquisitions per fairness/throughput window (0 = total/16)")
		jsonOut  = fs.Bool("json", false, "print the fetchphi.stress/v1 artifact to stdout instead of the table")
		out      = fs.String("out", "", "write the fetchphi.stress/v1 artifact to this path")
		baseline = fs.String("baseline", "", "gate the run against this baseline stress artifact")
		degrade  = fs.Float64("degrade", 0.5, "tolerated fractional degradation for the -baseline gate")
		in       = fs.String("in", "", "load the current artifact from this path instead of running (gate replay)")
		slim     = fs.Bool("slim", false, "drop raw distributions and timelines from the artifact, keeping headline quantiles (for checked-in baselines)")
		watch    = fs.Bool("watch", false, "render a refreshing terminal dashboard while the sweep runs")
		interval = fs.Duration("interval", 500*time.Millisecond, "refresh interval for -watch")
		list     = fs.Bool("list", false, "list known locks and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, name := range stress.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *iters < 1 || *cswork < 0 || *rate < 0 || *window < 0 || *degrade < 0 || *interval <= 0 {
		fmt.Fprintln(stderr, "lockstress: -iters must be positive; -cswork, -rate, -window, -degrade non-negative; -interval positive")
		return 2
	}

	var current *obs.StressArtifact
	if *in != "" {
		art, err := obs.ReadStressArtifact(*in)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		current = art
	} else {
		cases, err := selectCases(*lock)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sweep := []int{runtime.GOMAXPROCS(0)}
		if *workers != "" {
			if sweep, err = parseWorkers(*workers); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
		current = &obs.StressArtifact{
			Schema:     obs.StressSchema,
			CreatedBy:  "cmd/lockstress",
			Commit:     obs.GitCommit(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Iters:      *iters,
			CSWork:     *cswork,
			Rate:       *rate,
		}
		var board *liveBoard
		stop := func() {}
		if *watch {
			board = newLiveBoard()
			for _, c := range cases {
				for _, w := range sweep {
					board.addRow(c.Name, w, int64(w)*int64(*iters))
				}
			}
			stop = board.start(stdout, *interval)
		}
		for _, c := range cases {
			for _, w := range sweep {
				cfg := stress.Config{Workers: w, Iters: *iters, CSWork: *cswork,
					Rate: *rate, WindowOps: *window}
				if board != nil {
					cfg.OnTracker = board.attach(c.Name, w)
				}
				res, err := stress.Run(c, cfg)
				if err != nil {
					if board != nil {
						board.fail(c.Name, w)
						stop()
					}
					fmt.Fprintln(stderr, err)
					return 1
				}
				if board != nil {
					board.done(c.Name, w, res.Progress)
				}
				current.Locks = append(current.Locks, res.ArtifactRow())
			}
		}
		stop()
		current.Normalize()
	}
	if *slim {
		// The regression gate reads only the headline numbers; a slim
		// artifact keeps a checked-in baseline's diff churn proportional
		// to what the gate actually compares.
		for i := range current.Locks {
			l := &current.Locks[i]
			l.AcquireNS, l.HandoffNS, l.HoldNS = obs.Histogram{}, obs.Histogram{}, obs.Histogram{}
			l.WindowRates, l.PerWorkerOps = nil, nil
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(current); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		printTable(stdout, current)
	}
	if *out != "" {
		if err := current.WriteFile(*out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *baseline != "" {
		base, err := obs.ReadStressArtifact(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		regressions := obs.CompareStress(base, current, *degrade)
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(stderr, "lockstress: %s\n", r)
			}
			return 1
		}
		fmt.Fprintf(stdout, "baseline gate: ok (%d baseline rows within %.0f%%)\n",
			len(base.Locks), *degrade*100)
	}
	return 0
}

// printTable writes the human summary: one row per (lock, workers).
func printTable(w io.Writer, a *obs.StressArtifact) {
	fmt.Fprintf(w, "iters=%d cswork=%d rate=%.0f GOMAXPROCS=%d\n\n",
		a.Iters, a.CSWork, a.Rate, a.GOMAXPROCS)
	fmt.Fprintf(w, "%-14s %3s %12s %12s %9s %9s %9s %6s %6s\n",
		"lock", "w", "ops", "ops/s", "p50", "p99", "p999", "jain", "drift")
	for _, l := range a.Locks {
		fmt.Fprintf(w, "%-14s %3d %12d %12.0f %9s %9s %9s %6.3f %6.3f\n",
			l.Lock, l.Workers, l.Ops, l.OpsPerSec,
			nsString(l.AcquireP50NS), nsString(l.AcquireP99NS), nsString(l.AcquireP999NS),
			l.JainIndex, l.MinWindowJain)
	}
}
