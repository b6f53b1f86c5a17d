// Command perf is the simulator's host-cost benchmark. The paper's
// results are RMR counts; this measures what computing them costs the
// host — seconds per pass, allocation per simulated step, memory and
// set-up time — on four workloads, and checks on every pass that the
// simulated results it timed are still correct.
//
// Run it from the repository root:
//
//	bash bench/perf/run.sh [-workload all|paper-sweep|big-n|explore|fleet-explore]
//	    [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	bash bench/perf/run.sh compare [-spec BENCHMARK.json] DIR_A DIR_B
//	bash bench/perf/run.sh expected > bench/perf/expected.json
//
// One workload runs in one process: it repeats passes for -seconds and
// prints the median of each end-to-end metric, ending with one JSON
// line. -workload all runs every workload, each in its own child
// process. -trace 1 alternates untraced and traced passes, prints the
// per-layer metrics instead, and writes a Chrome trace (loadable in
// Perfetto) to bench/current/perf/TRACE_<workload>.json. A pass whose
// results differ from expected.json, from the run's first pass, or
// from the paper's claims fails the run with exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fetchphi/internal/trace"
)

// workRoot holds the traced runs' Chrome traces and each pass's scratch
// artifacts, relative to the repository root the benchmark runs from.
const workRoot = "bench/current/perf"

type metricDef struct{ name, unit string }

// e2eMetrics are printed by an untraced run; BENCHMARK.json gives their
// direction and regression bound. A pass does a fixed amount of work,
// so wall_s is the one timing: a rate would be its reciprocal.
var e2eMetrics = []metricDef{
	{"wall_s", "s"},
	{"alloc_b_per_step", "B/step"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics are printed by a traced run, for every workload; a layer
// a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{"bench.trace_overhead", "ratio"},
	{"host.cpu_util", "share"},
	{"host.gc_cpu_share", "share"},
	{"host.cpu_ns_per_step", "ns"},
	{"harness.tasks", "count"},
	{"harness.task_ms_p50", "ms"},
	{"harness.task_ms_p95", "ms"},
	{"harness.account_share", "share"},
	{"memsim.runs", "count"},
	{"memsim.steps_per_run", "count"},
	{"memsim.build_share", "share"},
	{"memsim.pick_share", "share"},
	{"core.build_share", "share"},
	{"trace.events", "count"},
	{"trace.sink_share", "share"},
	{"experiments.E1.wall_share", "share"},
	{"experiments.E2.wall_share", "share"},
	{"experiments.E3.wall_share", "share"},
	{"experiments.E4.wall_share", "share"},
	{"experiments.E5.wall_share", "share"},
	{"experiments.E6.wall_share", "share"},
	{"experiments.E7.wall_share", "share"},
	{"experiments.E8.wall_share", "share"},
	{"experiments.E10.wall_share", "share"},
	{"obs.write_wall_share", "share"},
	{"claims.evaluate_wall_share", "share"},
	{"explore.wave_share.d0", "share"},
	{"explore.wave_share.d1", "share"},
	{"explore.wave_share.d2", "share"},
	{"fleet.leases", "count"},
	{"fleet.re_leases", "count"},
	{"fleet.stale_reports", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it returns the exit code (0 ok, 1
// failure or incorrect results, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "expected":
			if err := os.MkdirAll(workRoot, 0o755); err != nil {
				fmt.Fprintln(stderr, "perf:", err)
				return 1
			}
			return runExpected(workRoot, stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run, or all (each in its own process)")
		seed      = fs.Int64("seed", 1, "input seed")
		seconds   = fs.Int("seconds", 30, "how long to repeat passes")
		traceFlag = fs.Int("trace", 0, "1: traced run (per-layer metrics and a Chrome trace)")
		out       = fs.String("out", "", "directory to write this run's results JSON into")
		setupOnly = fs.Bool("setup-only", false, "prepare the workload and exit (the setup_s probe)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perf: usage: perf [-workload W] [-seed N] [-seconds S>=1] [-trace 0|1] [-out DIR]")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if *setupOnly {
		if _, err := w.prepare(*seed, exp, workRoot); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		return 0
	}

	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1,
		probeSetup: *traceFlag == 0, workDir: workRoot,
	}
	o, err := measure(w, exp, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	res := result{Correct: o.err == nil, Attempted: o.attempted, Failed: o.failed}
	if cfg.traced {
		res.Metrics = o.layer()
	} else {
		res.Metrics = o.e2e()
	}
	code := 0
	if o.err != nil {
		fmt.Fprintf(stderr, "perf: %s: INCORRECT: %v\n", w.name, o.err)
		code = 1
	}
	if cfg.traced && o.err == nil {
		path, err := o.writeTrace(w.name)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "%s: wrote %s\n", w.name, path)
		}
	}
	if *out != "" {
		path, err := writeResults(*out, w.name, cfg, *seconds, o, res)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "%s: wrote %s\n", w.name, path)
		}
	}
	printMetrics(stdout, w.name, o, res, cfg.traced)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// runAll runs every workload in its own process with the same flags,
// passing each one's output through.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type runConfig struct {
	seed       int64
	seconds    time.Duration
	traced     bool
	probeSetup bool   // measure setup_s
	workDir    string // scratch directory for pass artifacts
}

// passRecord is one pass's measurements.
type passRecord struct {
	Traced bool    `json:"traced"`
	WallS  float64 `json:"wall_s"`
	Steps  int64   `json:"steps"`
	Runs   int64   `json:"runs"`
	AllocB uint64  `json:"alloc_b"`
	CPUS   float64 `json:"cpu_s"`
	GCCPUS float64 `json:"gc_cpu_s"`
}

// outcome is everything one run measured.
type outcome struct {
	setup     []float64 // seconds per fresh-process set-up
	passes    []passRecord
	maxRSSMB  float64
	procs     int // GOMAXPROCS
	tr        *tracer
	attempted int64
	failed    int64
	err       error // the first incorrect pass, if any
}

// setupProbe times one fresh process that starts the command, prepares
// the workload's inputs and exits.
func setupProbe(exe, workload string, seed int64, stderr io.Writer) (float64, error) {
	cmd := exec.Command(exe, "-setup-only", "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Stderr = stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s: set-up probe: %w", workload, err)
	}
	return time.Since(start).Seconds(), nil
}

// measure runs one workload's passes until the time is up, stopping at
// the first incorrect pass. With cfg.probeSetup, a set-up probe runs
// before every pass: spread over the run, the probes see the same host
// as the passes, where probes taken together at the start would see
// only its first moment.
func measure(w workload, exp *expected, cfg runConfig, stderr io.Writer) (*outcome, error) {
	o := &outcome{procs: runtime.GOMAXPROCS(0)}
	var exe string
	if cfg.probeSetup {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
	}
	inst, err := w.prepare(cfg.seed, exp, cfg.workDir)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		o.tr = newTracer()
	}
	minPasses, tracedSeen := 3, false
	if cfg.traced {
		minPasses = 4
	}
	var walls []float64
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > cfg.seconds {
			break
		}
		var tr *tracer
		if cfg.traced && i%2 == 1 {
			tr = o.tr
			tr.mu.Lock()
			tr.keep = !tracedSeen
			tr.mu.Unlock()
			tracedSeen = true
		}
		if cfg.probeSetup {
			d, err := setupProbe(exe, w.name, cfg.seed, stderr)
			if err != nil {
				return nil, err
			}
			o.setup = append(o.setup, d)
		}
		// Start every pass from a collected heap, so one pass's garbage
		// is not charged to the next.
		runtime.GC()
		h0 := readHost()
		t0 := time.Now()
		wk, err := inst.pass(tr)
		wall := time.Since(t0)
		h1 := readHost()
		o.attempted += max(wk.runs, 1)
		if err != nil {
			o.failed += max(wk.runs, 1)
			o.err = err
			break
		}
		walls = append(walls, wall.Seconds())
		o.passes = append(o.passes, passRecord{
			Traced: tr != nil,
			WallS:  wall.Seconds(),
			Steps:  wk.steps,
			Runs:   wk.runs,
			AllocB: h1.alloc - h0.alloc,
			CPUS:   (h1.cpu - h0.cpu).Seconds(),
			GCCPUS: h1.gcCPU - h0.gcCPU,
		})
	}
	o.maxRSSMB, err = peakRSSMB()
	if err != nil {
		return nil, err
	}
	return o, nil
}

func (o *outcome) split() (untraced, traced []passRecord) {
	for _, p := range o.passes {
		if p.Traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return untraced, traced
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// e2e computes the end-to-end metrics from the untraced passes: the
// median over passes of each per-pass figure.
func (o *outcome) e2e() map[string]metricValue {
	u, _ := o.split()
	var wall, aps []float64
	for _, p := range u {
		wall = append(wall, p.WallS)
		aps = append(aps, ratio(float64(p.AllocB), float64(p.Steps)))
	}
	vals := map[string]float64{
		"wall_s":           median(wall),
		"alloc_b_per_step": median(aps),
		"max_rss_mb":       o.maxRSSMB,
		"setup_s":          median(o.setup),
	}
	return withUnits(e2eMetrics, vals)
}

// layer computes the per-layer metrics: host figures from the untraced
// passes, layer sums from the traced ones. Shares of the worker
// capacity divide a layer's summed time by the traced passes' wall time
// times GOMAXPROCS; wall shares divide by the wall time alone.
func (o *outcome) layer() map[string]metricValue {
	u, t := o.split()
	var uWall, uCPU, uGC, uSteps float64
	var uWalls, tWalls []float64
	for _, p := range u {
		uWall += p.WallS
		uCPU += p.CPUS
		uGC += p.GCCPUS
		uSteps += float64(p.Steps)
		uWalls = append(uWalls, p.WallS)
	}
	var tWall, tSteps, tRuns float64
	for _, p := range t {
		tWall += p.WallS
		tSteps += float64(p.Steps)
		tRuns += float64(p.Runs)
		tWalls = append(tWalls, p.WallS)
	}
	n := float64(len(t))
	tr := o.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seg := func(name string) float64 { return tr.seg[name].Seconds() }
	capacity := tWall * float64(o.procs)
	var taskSum time.Duration
	for _, d := range tr.tasks {
		taskSum += d
	}
	vals := map[string]float64{
		"bench.trace_overhead":       ratio(median(tWalls), median(uWalls)),
		"host.cpu_util":              ratio(uCPU, uWall*float64(o.procs)),
		"host.gc_cpu_share":          ratio(uGC, uCPU),
		"host.cpu_ns_per_step":       ratio(uCPU*1e9, uSteps),
		"harness.tasks":              ratio(float64(len(tr.tasks)), n),
		"harness.task_ms_p50":        float64(quantile(tr.tasks, 0.50)) / 1e6,
		"harness.task_ms_p95":        float64(quantile(tr.tasks, 0.95)) / 1e6,
		"harness.account_share":      ratio(seg("harness.account"), capacity),
		"memsim.runs":                ratio(tRuns, n),
		"memsim.steps_per_run":       ratio(tSteps, tRuns),
		"memsim.build_share":         ratio(seg("memsim.build")+time.Duration(tr.memsimBuildNS.Load()).Seconds(), capacity),
		"memsim.pick_share":          ratio(seg("memsim.pick"), capacity),
		"core.build_share":           ratio(time.Duration(tr.coreBuildNS.Load()).Seconds(), capacity),
		"trace.events":               ratio(float64(tr.count["trace.events"]), n),
		"trace.sink_share":           ratio(seg("trace.sink"), capacity),
		"obs.write_wall_share":       ratio(seg("obs.write"), tWall),
		"claims.evaluate_wall_share": ratio(seg("claims.evaluate"), tWall),
		"fleet.leases":               ratio(float64(tr.count["fleet.leases"]), n),
		"fleet.re_leases":            ratio(float64(tr.count["fleet.re_leases"]), n),
		"fleet.stale_reports":        ratio(float64(tr.count["fleet.stale_reports"]), n),
	}
	for _, m := range layerMetrics {
		if id, ok := strings.CutPrefix(m.name, "experiments."); ok {
			id = strings.TrimSuffix(id, ".wall_share")
			vals[m.name] = ratio(seg("experiments."+id), tWall)
		}
		if d, ok := strings.CutPrefix(m.name, "explore.wave_share."); ok {
			vals[m.name] = ratio(seg("explore.wave."+d), taskSum.Seconds())
		}
	}
	return withUnits(layerMetrics, vals)
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// writeTrace validates the traced run's spans and writes them as a
// Chrome trace.
func (o *outcome) writeTrace(workload string) (string, error) {
	o.tr.mu.Lock()
	spans := append([]span(nil), o.tr.spans...)
	o.tr.mu.Unlock()
	if _, err := checkSpans(spans); err != nil {
		return "", fmt.Errorf("%s trace: %w", workload, err)
	}
	data, err := o.tr.chromeJSON(workload)
	if err != nil {
		return "", err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return "", fmt.Errorf("%s trace: %w", workload, err)
	}
	path := filepath.Join(workRoot, "TRACE_"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func printMetrics(w io.Writer, workload string, o *outcome, res result, traced bool) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	u, t := o.split()
	fmt.Fprintf(w, "%s: %d untraced + %d traced passes, %d setup probes, GOMAXPROCS=%d, correct=%v\n",
		workload, len(u), len(t), len(o.setup), o.procs, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}
