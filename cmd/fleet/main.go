// Command fleet distributes the model checker across machines. A
// coordinator (`fleet serve`) owns the campaign: it decomposes each
// schedule wave into contiguous index-range leases and merges reported
// outcomes back in canonical order, executing nothing itself. Workers
// (`fleet work`) claim leases over plain HTTP+JSON, run them through
// the exact explorer construction every local check path uses, and
// report outcomes. The verdict — runs, exhaustion, per-depth counts,
// canonical failing schedule — is bit-identical to a single-machine
// `explore` run at any worker count, join/leave order, or lease size;
// distribution changes wall-clock time only.
//
// Usage:
//
//	fleet serve  -listen :8423 [-alg g-dsm] [-n 2] [-entries 2]
//	             [-preemptions 2] [-maxruns 500000] [-lease-size 256]
//	             [-lease-timeout 30s] [-checkpoint ck.json] [-out art.json]
//	             [-capacity cap.json] [-pprof]
//	fleet work   -coordinator http://host:8423 [-id worker-name] [-shards 1]
//	fleet status -coordinator http://host:8423 [-watch] [-interval 1s]
//	             [-artifacts bench/current/explore]
//	fleet run    [-workers 2] [-shards 1] [...serve campaign flags]
//	fleet smoke  -capacity cap.json [-workers 2] [...campaign flags]
//
// `fleet run` is the single-process convenience form: an in-process
// coordinator plus -workers in-process workers over loopback HTTP,
// exercising the full lease/report protocol.
//
// Telemetry: the coordinator serves its live metrics registry, the
// only store of the campaign's counts, on /v1/metrics (counters and µs
// histograms, sorted by name); -pprof additionally mounts
// net/http/pprof under /debug/pprof/ for profiling a hot coordinator.
// With -capacity, the campaign writes a fetchphi.capacity/v2
// throughput artifact next to the checkpoint — rewritten after every
// wave, finalized on completion. `fleet status` reads /v1/status and
// /v1/metrics and prints the campaign's state and counts; with -watch
// it renders a refreshing terminal dashboard (campaign progress,
// worker liveness, re-lease churn, and algorithm×model coverage from
// the -artifacts directory) until the campaign ends. `fleet smoke` is
// the CI gate: a loopback fleet run that asserts a valid capacity
// artifact and a live /v1/metrics.
//
// With -checkpoint, the coordinator persists every completed wave to
// the given path (a fetchphi.explore/v3 checkpoint artifact; `fleet
// run -checkpoint` is the single-machine form); a restarted coordinator
// resumes from it without re-exploring finished waves, and the final
// artifact is byte-identical to an uninterrupted run's. Exit codes:
// 0 ok, 1 check failure or transport error, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"fetchphi/internal/experiments"
	"fetchphi/internal/fleet"
	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: fleet <serve|work|status|run|smoke> [flags]  (fleet <cmd> -h for details)")
	return 2
}

// run is the testable entry point: parses argv, executes, and returns
// the process exit code (0 ok, 1 failure, 2 usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		return usage(stderr)
	}
	switch argv[0] {
	case "serve":
		return runServe(argv[1:], stdout, stderr)
	case "work":
		return runWork(argv[1:], stdout, stderr)
	case "status":
		return runStatus(argv[1:], stdout, stderr)
	case "run":
		return runLocal(argv[1:], stdout, stderr)
	case "smoke":
		return runSmoke(argv[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "fleet: unknown subcommand %q\n", argv[0])
		return usage(stderr)
	}
}

// campaignFlags registers the flags shared by serve and run and
// returns a loader that validates them into a fleet.Config.
func campaignFlags(fs *flag.FlagSet, stderr io.Writer) func() (fleet.Config, bool) {
	var (
		alg         = fs.String("alg", "g-dsm", "algorithm to check (must be in the experiments registry)")
		n           = fs.Int("n", 2, "number of processes")
		entries     = fs.Int("entries", 2, "critical-section entries per process")
		preemptions = fs.Int("preemptions", 2, "preemption bound K (0 = exactly non-preemptive)")
		maxRuns     = fs.Int("maxruns", harness.DefaultCheckMaxRuns, "cap on explored schedules per model")
	)
	return func() (fleet.Config, bool) {
		if *n < 1 || *entries < 1 || *preemptions < 0 || *maxRuns < 1 {
			fmt.Fprintln(stderr, "fleet: -n, -entries, -maxruns must be positive; -preemptions non-negative")
			return fleet.Config{}, false
		}
		if _, err := experiments.Algorithm(*alg); err != nil {
			fmt.Fprintln(stderr, err)
			return fleet.Config{}, false
		}
		return fleet.Config{
			Algorithm:   *alg,
			N:           *n,
			Entries:     *entries,
			Preemptions: *preemptions,
			MaxRuns:     *maxRuns,
		}, true
	}
}

// report prints the per-model verdicts exactly like cmd/explore, from
// the rows of the coordinator's wall-clock-free artifact, and
// optionally writes that artifact.
func report(stdout, stderr io.Writer, coord *fleet.Coordinator, checkErr error, out string) int {
	if art := coord.Artifact(); art != nil {
		if out != "" {
			if err := art.WriteFile(out); err != nil {
				fmt.Fprintf(stderr, "fleet: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", out)
		}
		obs.WriteCoverage(stdout, art.Models)
	}
	if checkErr != nil {
		fmt.Fprintf(stderr, "FAIL: %v\n", checkErr)
		return 1
	}
	fmt.Fprintln(stdout, "OK: no violation, deadlock, or livelock")
	return 0
}

func runServe(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgOf := campaignFlags(fs, stderr)
	var (
		listen       = fs.String("listen", "127.0.0.1:8423", "address to serve the coordinator API on")
		leaseSize    = fs.Int("lease-size", fleet.DefaultLeaseSize, "schedules per lease")
		leaseTimeout = fs.Duration("lease-timeout", fleet.DefaultLeaseTimeout, "re-lease deadline for unreported ranges")
		checkpoint   = fs.String("checkpoint", "", "persist completed waves to this path and resume from it")
		capacity     = fs.String("capacity", "", "write a fetchphi.capacity/v2 throughput artifact to this path (rewritten per wave)")
		out          = fs.String("out", "", "write a fetchphi.explore/v3 artifact to this path")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the coordinator listener")
		grace        = fs.Duration("grace", time.Second, "how long to keep serving after completion so workers observe done")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	cfg, ok := cfgOf()
	if !ok {
		return 2
	}
	if *leaseSize < 1 || *leaseTimeout <= 0 {
		fmt.Fprintln(stderr, "fleet: -lease-size and -lease-timeout must be positive")
		return 2
	}
	coord := fleet.NewCoordinator(cfg, fleet.CoordinatorOptions{
		LeaseSize:      *leaseSize,
		LeaseTimeout:   *leaseTimeout,
		CheckpointPath: *checkpoint,
		CapacityPath:   *capacity,
		CreatedBy:      "cmd/fleet",
		Commit:         obs.GitCommit(),
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	handler := coord.Handler()
	if *pprofOn {
		handler = withPprof(handler)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(stdout, "fleet: serving %s N=%d entries=%d K=%d on %s\n",
		cfg.Algorithm, cfg.N, cfg.Entries, cfg.Preemptions, ln.Addr())

	_, checkErr := coord.Run()
	code := report(stdout, stderr, coord, checkErr, *out)
	// Keep answering "done" briefly so connected workers exit cleanly
	// instead of burning their retry budgets on a vanished server.
	//fetchphilint:ignore determinism shutdown grace period; the campaign result is already fixed
	time.Sleep(*grace)
	return code
}

// withPprof mounts the opt-in net/http/pprof handlers in front of the
// coordinator API — the profiling hook for a hot coordinator. Off by
// default: profiling endpoints on a control plane should be a
// deliberate choice, not ambient surface.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func runWork(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (http://host:port)")
		id          = fs.String("id", "", "worker name in the coordinator's status and metrics (default host.pid)")
		shards      = fs.Int("shards", 1, "local wave-shard width per lease (1 = sequential, 0 = all CPUs)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *coordinator == "" {
		fmt.Fprintln(stderr, "fleet: -coordinator is required")
		return 2
	}
	name := *id
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	w := &fleet.Worker{
		ID:          name,
		Coordinator: *coordinator,
		Resolve:     experiments.Algorithm,
		Shards:      *shards,
	}
	fmt.Fprintf(stdout, "fleet: worker %s -> %s\n", name, *coordinator)
	if err := w.Run(context.Background()); err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "fleet: campaign done")
	return 0
}

func runStatus(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (http://host:port)")
		watch       = fs.Bool("watch", false, "refresh a terminal coverage dashboard until the campaign ends")
		interval    = fs.Duration("interval", time.Second, "poll interval for -watch")
		artifacts   = fs.String("artifacts", "bench/current/explore", "explore-artifact directory for the coverage grid")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *coordinator == "" {
		fmt.Fprintln(stderr, "fleet: -coordinator is required")
		return 2
	}
	if *watch {
		return runWatch(stdout, stderr, *coordinator, *interval, *artifacts)
	}
	state, err := fetchState(http.DefaultClient, *coordinator)
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}
	st, count := &state.Status, state.Metrics.Counter
	fmt.Fprintf(stdout, "%s: %s", st.Algorithm, st.State)
	if st.Model != "" {
		fmt.Fprintf(stdout, " (wave %s depth=%d frontier=%d: %d pending / %d leased / %d done ranges)",
			st.Model, st.Depth, st.Frontier, st.RangesPending, st.RangesLeased, st.RangesDone)
	}
	fmt.Fprintf(stdout, "; %d leases, %d re-leases, %d stale reports\n",
		count(fleet.MetricLeases), count(fleet.MetricReLeases), count(fleet.MetricStaleReports))
	fmt.Fprintf(stdout, "waves %d, schedules %d\n", count(fleet.MetricWaves), count(fleet.MetricSchedules))
	for _, ws := range st.Workers {
		fmt.Fprintf(stdout, "worker %s: %d leases, %d schedules, seen %dms ago\n",
			ws.Worker, count(fleet.WorkerMetric(ws.Worker, "leases")), count(fleet.WorkerMetric(ws.Worker, "schedules")), ws.LastSeenMS)
	}
	if st.Failure != "" {
		fmt.Fprintf(stdout, "failure: %s\n", st.Failure)
	}
	return 0
}

// runWatch drives the -watch loop: poll, render a frame, and keep
// going until the campaign reports done (exit 0) or failed (exit 1).
func runWatch(stdout, stderr io.Writer, coordinator string, interval time.Duration, artifacts string) int {
	algs := experiments.AlgorithmNames()
	models := coverageModels()
	for {
		state, err := fetchState(http.DefaultClient, coordinator)
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, clearScreen)
		renderDashboard(stdout, state, algs, models, loadCoverage(artifacts), artifacts)
		switch state.Status.State {
		case "done":
			return 0
		case "failed":
			return 1
		}
		//fetchphilint:ignore determinism watch-dashboard poll pacing; renders already-fixed state
		time.Sleep(interval)
	}
}

func runLocal(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgOf := campaignFlags(fs, stderr)
	var (
		workers    = fs.Int("workers", 2, "in-process fleet workers")
		shards     = fs.Int("shards", 1, "wave-shard width per worker (0 = all CPUs)")
		leaseSize  = fs.Int("lease-size", fleet.DefaultLeaseSize, "schedules per lease")
		checkpoint = fs.String("checkpoint", "", "persist completed waves to this path and resume from it")
		capacity   = fs.String("capacity", "", "write a fetchphi.capacity/v2 throughput artifact to this path")
		out        = fs.String("out", "", "write a fetchphi.explore/v3 artifact to this path")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	cfg, ok := cfgOf()
	if !ok {
		return 2
	}
	if *workers < 1 || *shards < 0 || *leaseSize < 1 {
		fmt.Fprintln(stderr, "fleet: -workers, -lease-size must be positive; -shards non-negative")
		return 2
	}
	builder, err := experiments.Algorithm(cfg.Algorithm)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	coord := fleet.NewCoordinator(cfg, fleet.CoordinatorOptions{
		LeaseSize:      *leaseSize,
		CheckpointPath: *checkpoint,
		CapacityPath:   *capacity,
		CreatedBy:      "cmd/fleet",
		Commit:         obs.GitCommit(),
	})
	fmt.Fprintf(stdout, "fleet: in-process run of %s N=%d entries=%d K=%d with %d workers\n",
		cfg.Algorithm, cfg.N, cfg.Entries, cfg.Preemptions, *workers)
	_, checkErr := fleet.CheckWith(coord, builder, fleet.CheckOptions{
		Workers: *workers,
		Shards:  *shards,
	})
	return report(stdout, stderr, coord, checkErr, *out)
}
