package main

// fleet smoke: the telemetry CI gate. Runs a real loopback-HTTP fleet
// (coordinator + workers, full lease/report protocol), then asserts
// the observability contract end to end: the fetchphi.capacity/v2
// artifact is valid, Complete, and carries nonzero schedule, lease,
// and throughput numbers; and /v1/metrics answers 200 with a snapshot
// whose counters agree. `make telemetry-smoke` wires this into ci.

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"

	"fetchphi/internal/experiments"
	"fetchphi/internal/fleet"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

func runSmoke(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet smoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgOf := campaignFlags(fs, stderr)
	var (
		workers  = fs.Int("workers", 2, "in-process fleet workers")
		capacity = fs.String("capacity", "", "write (and then validate) the fetchphi.capacity/v2 artifact at this path")
		out      = fs.String("out", "", "also write the fetchphi.explore/v3 artifact to this path")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	cfg, ok := cfgOf()
	if !ok {
		return 2
	}
	if *capacity == "" {
		fmt.Fprintln(stderr, "fleet: smoke requires -capacity")
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(stderr, "fleet: -workers must be positive")
		return 2
	}
	builder, err := experiments.Algorithm(cfg.Algorithm)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	coord := fleet.NewCoordinator(cfg, fleet.CoordinatorOptions{
		CapacityPath: *capacity,
		CreatedBy:    "cmd/fleet",
		Commit:       obs.GitCommit(),
	})
	fmt.Fprintf(stdout, "fleet: smoke run of %s N=%d entries=%d K=%d with %d workers\n",
		cfg.Algorithm, cfg.N, cfg.Entries, cfg.Preemptions, *workers)
	_, checkErr := fleet.CheckWith(coord, builder, fleet.CheckOptions{Workers: *workers})
	if code := report(stdout, stderr, coord, checkErr, *out); code != 0 {
		return code
	}

	art, err := obs.ReadCapacityArtifact(*capacity)
	if err != nil {
		fmt.Fprintf(stderr, "fleet: smoke: %v\n", err)
		return 1
	}
	switch {
	case !art.Complete:
		fmt.Fprintf(stderr, "fleet: smoke: capacity artifact %s is not Complete\n", *capacity)
		return 1
	case art.Schedules <= 0 || art.Waves <= 0:
		fmt.Fprintf(stderr, "fleet: smoke: capacity artifact records %d schedules over %d waves; want both nonzero\n", art.Schedules, art.Waves)
		return 1
	case art.Leases <= 0:
		fmt.Fprintf(stderr, "fleet: smoke: capacity artifact records no leases — the fleet path did not run\n")
		return 1
	case art.SchedulesPerSec <= 0:
		fmt.Fprintf(stderr, "fleet: smoke: capacity artifact records %.1f schedules/sec; want nonzero\n", art.SchedulesPerSec)
		return 1
	}

	// Probe /v1/metrics over real HTTP: the finished coordinator's
	// handler still serves, so stand it on a fresh loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(stderr, "fleet: smoke: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	var snap telemetry.Snapshot
	if err := getJSON(http.DefaultClient, "http://"+ln.Addr().String()+fleet.PathMetrics, &snap); err != nil {
		fmt.Fprintf(stderr, "fleet: smoke: %v\n", err)
		return 1
	}
	if got := snap.Counter(fleet.MetricSchedules); got != art.Schedules {
		fmt.Fprintf(stderr, "fleet: smoke: /v1/metrics reports %d schedules, capacity artifact %d\n", got, art.Schedules)
		return 1
	}
	fmt.Fprintf(stdout, "smoke ok: %d schedules in %d waves at %.0f/s, %d leases (%.1f%% re-leased), /v1/metrics live\n",
		art.Schedules, art.Waves, art.SchedulesPerSec, art.Leases, 100*art.ReLeaseRate)
	return 0
}
