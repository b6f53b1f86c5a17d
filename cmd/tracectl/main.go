// Command tracectl records, converts, and validates span-timeline
// trace artifacts (fetchphi.trace/v1).
//
// Usage:
//
//	tracectl record  [-alg g-dsm] [-model DSM] [-n 4] [-entries 3]
//	                 [-cs 1] [-seed 1] [-limit 0] -out TRACE.json
//	tracectl convert -in TRACE.json -out trace.chrome.json
//	tracectl validate -in TRACE.json
//	tracectl hotspots [-alg mcs] [-model CC] [-n 8] [-entries 10]
//	                  [-top 12] [-seed 1]
//
// record runs one workload of any registered algorithm (the cmd/explore
// -list names) on a simulated machine with a trace recorder attached
// and writes the span timeline as a trace artifact. -limit bounds the
// retained spans per process (the flight-recorder window); 0 keeps the
// whole run.
//
// convert turns a trace artifact into Chrome trace-event JSON: open
// ui.perfetto.dev and drop the file in to browse per-process
// entry/cs/exit/spin spans with their RMR counts and variables.
//
// validate checks an artifact against the fetchphi.trace/v1 schema —
// what the trace-smoke CI target runs against freshly recorded traces.
//
// hotspots attributes an algorithm's remote memory references to
// individual shared variables: it runs a contended workload, then ranks
// the variables by the RMR traffic they attracted. This is the analysis
// view behind statements like "the ticket lock's owner counter is a
// global hot spot" or "MCS traffic concentrates on the tail word".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: tracectl record|convert|validate|hotspots [flags] (see go doc fetchphi/cmd/tracectl)")
	return 2
}

// run is the testable entry point (exit codes: 0 ok, 1 failure, 2
// usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		return usage(stderr)
	}
	switch argv[0] {
	case "record":
		return record(argv[1:], stdout, stderr)
	case "convert":
		return convert(argv[1:], stdout, stderr)
	case "validate":
		return validate(argv[1:], stdout, stderr)
	case "hotspots":
		return hotspots(argv[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "tracectl: unknown subcommand %q\n", argv[0])
		return usage(stderr)
	}
}

func parseModel(name string) (memsim.Model, error) {
	switch strings.ToLower(name) {
	case "cc":
		return memsim.CC, nil
	case "dsm":
		return memsim.DSM, nil
	case "cc-update", "ccupdate":
		return memsim.CCUpdate, nil
	default:
		return 0, fmt.Errorf("unknown model %q (want CC, DSM, or CC-update)", name)
	}
}

func record(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracectl record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg     = fs.String("alg", "g-dsm", "algorithm to trace (see cmd/explore -list)")
		model   = fs.String("model", "DSM", "memory model: CC, DSM, or CC-update")
		n       = fs.Int("n", 4, "processes")
		entries = fs.Int("entries", 3, "critical-section entries per process")
		csops   = fs.Int("cs", 1, "shared operations inside the critical section")
		seed    = fs.Int64("seed", 1, "scheduler seed")
		limit   = fs.Int("limit", 0, "retained spans per process (0 = whole run)")
		out     = fs.String("out", "", "trace artifact to write (required)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "tracectl record: -out is required")
		return 2
	}
	if *n < 1 || *entries < 1 || *csops < 0 || *limit < 0 {
		fmt.Fprintln(stderr, "tracectl record: -n and -entries must be positive; -cs and -limit non-negative")
		return 2
	}
	mm, err := parseModel(*model)
	if err != nil {
		fmt.Fprintf(stderr, "tracectl record: %v\n", err)
		return 2
	}
	builder, err := experiments.Algorithm(*alg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// The artifact is read at once, so the recorder watches the run:
	// an explicit scheduler (the default one, seeded alike) makes the
	// harness attach it rather than hand it a replay to run again.
	rec := trace.NewRecorder(*limit)
	w := harness.Workload{
		Model: mm, N: *n, Entries: *entries, CSOps: *csops,
		Seed: *seed, Sched: memsim.NewRandom(*seed), Sink: rec,
	}
	met, err := harness.Run(builder, w)
	kind := "recording"
	reason := ""
	if err != nil {
		// A failed run is exactly what a trace is for: keep recording,
		// mark the artifact as a flight-recorder dump.
		kind, reason = "flight-recorder", err.Error()
		fmt.Fprintf(stderr, "tracectl record: run failed (trace written anyway): %v\n", err)
	}

	a := rec.Artifact(kind)
	a.Reason = reason
	a.Algorithm = *alg
	a.Model = mm.String()
	a.N = *n
	a.CreatedBy = "cmd/tracectl"
	if werr := a.WriteFile(*out); werr != nil {
		fmt.Fprintf(stderr, "tracectl record: %v\n", werr)
		return 1
	}
	fmt.Fprintf(stdout, "%s %s N=%d seed=%d: %d spans over %d steps -> %s\n",
		*alg, mm, *n, *seed, len(a.Spans), met.Result.Steps, *out)
	if err != nil {
		return 1
	}
	return 0
}

func convert(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracectl convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in  = fs.String("in", "", "trace artifact to convert (required)")
		out = fs.String("out", "", "Chrome trace-event JSON to write (default: stdout)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "tracectl convert: -in is required")
		return 2
	}
	a, err := obs.ReadTraceArtifact(*in)
	if err != nil {
		fmt.Fprintf(stderr, "tracectl convert: %v\n", err)
		return 1
	}
	data, err := trace.ChromeTrace(a)
	if err != nil {
		fmt.Fprintf(stderr, "tracectl convert: %v\n", err)
		return 1
	}
	if err := trace.ValidateChrome(data); err != nil {
		fmt.Fprintf(stderr, "tracectl convert: produced invalid output: %v\n", err)
		return 1
	}
	if *out == "" {
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintf(stderr, "tracectl convert: %v\n", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "tracectl convert: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d spans -> %s (load it at ui.perfetto.dev)\n", len(a.Spans), *out)
	return 0
}

func validate(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracectl validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "trace artifact to validate (required)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "tracectl validate: -in is required")
		return 2
	}
	a, err := obs.ReadTraceArtifact(*in)
	if err != nil {
		fmt.Fprintf(stderr, "tracectl validate: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: valid %s (%s, %d spans)\n", *in, a.Schema, a.Kind, len(a.Spans))
	return 0
}

func hotspots(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracectl hotspots", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg     = fs.String("alg", "mcs", "algorithm (see cmd/explore -list)")
		model   = fs.String("model", "CC", "memory model: CC, DSM, or CC-update")
		n       = fs.Int("n", 8, "processes")
		entries = fs.Int("entries", 10, "critical-section entries per process")
		top     = fs.Int("top", 12, "variables to show")
		seed    = fs.Int64("seed", 1, "scheduler seed")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	mm, err := parseModel(*model)
	if err != nil {
		fmt.Fprintf(stderr, "tracectl hotspots: %v\n", err)
		return 2
	}
	builder, err := experiments.Algorithm(*alg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *n < 1 || *entries < 1 {
		fmt.Fprintln(stderr, "tracectl hotspots: -n and -entries must be positive")
		return 2
	}

	m := memsim.NewMachine(mm, *n)
	defer m.Release()
	a := builder(m)
	for i := 0; i < *n; i++ {
		m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
			for e := 0; e < *entries; e++ {
				a.Acquire(p)
				p.EnterCS()
				p.ExitCS()
				a.Release(p)
			}
		})
	}
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(*seed)})
	if err := res.Err(); err != nil {
		fmt.Fprintf(stderr, "tracectl hotspots: run failed: %v\n", err)
		return 1
	}

	total := res.TotalRMRs()
	fmt.Fprintf(stdout, "%s on %s, N=%d, %d entries each: %d CS entries, %d total RMRs (%.1f/entry)\n\n",
		a.Name(), mm, *n, *entries, res.CSEntries, total, res.MeanRMRPerEntry())
	fmt.Fprintf(stdout, "%-36s %10s %7s\n", "variable", "RMRs", "share")
	for _, v := range m.HotVars(*top) {
		fmt.Fprintf(stdout, "%-36s %10d %6.1f%%\n", v.Name, v.RMRs, 100*float64(v.RMRs)/float64(total))
	}
	return 0
}
