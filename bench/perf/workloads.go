package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"fetchphi/internal/claims"
	"fetchphi/internal/experiments"
	"fetchphi/internal/fleet"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
	"fetchphi/internal/trace"
)

// Workload sizes. Every workload runs two workers on the reference
// box's two cores; each pass is sized to take one to two seconds
// there, so a run's median is taken over several passes.
const (
	workers = 2

	// paperSweepSeed is the one scheduler seed family paper-sweep runs:
	// the family bench/baseline holds. Families differ by 10-20% in work
	// the step count misses (E8a's seed search, E5), so a run timed over
	// a varying family would measure its family as much as the code.
	paperSweepSeed = 1

	// bigN is the process count of the big-n cells: large enough that
	// the engine's O(N) runnable scan is a fifth of the CPU, small
	// enough to stay under ~250 MB of RSS.
	bigN        = 256
	bigNEntries = 8

	// The explore workloads exhaust the paper's DSM algorithm at the
	// configuration the conformance tests pin (N=2, K=2).
	exploreAlg         = "g-dsm"
	exploreN           = 2
	exploreEntries     = 2
	explorePreemptions = 2
)

// bigNAlgorithms are the registry algorithms big-n sweeps on both
// models: the paper's constructions plus the queue-lock and read/write
// baselines, so every algorithm shape the engine runs is represented.
var bigNAlgorithms = []string{"g-cc", "g-dsm", "tree4", "t", "mcs", "clh", "yang-anderson-tree"}

// work is what one pass did: the simulated steps and machine runs it
// timed, and a digest of its simulated results.
type work struct {
	steps  int64
	runs   int64
	digest string
}

// instance is one workload prepared for a seed. pass runs it once,
// checks its results, and reports the work done; tr is nil on untraced
// passes.
type instance interface {
	pass(tr *tracer) (work, error)
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	prepare func(seed int64, exp *expected, workDir string) (instance, error)
}

// The workloads, and why each was chosen. The shares are of CPU profile
// samples over each workload's passes (BenchmarkPass with -cpuprofile);
// the README's Workloads section gives the full breakdown.
var workloads = []workload{
	// What a reproducer waits for, and the only workload that uses the
	// trace sink, phi (E5, ~30% of CPU), obs and claims.
	{
		name: "paper-sweep",
		prepare: func(_ int64, exp *expected, workDir string) (instance, error) {
			return preparePaperSweep(exp, workDir), nil
		},
	},
	// The per-step engine loop at N=256: goroutine handoff ~40% of CPU,
	// the O(N) runnable scan ~20%.
	{name: "big-n", prepare: prepareBigN},
	// The handoff (over half the CPU) with a trivial scan at N=2, over
	// 10.8k machines whose build is 3-4%; the only workload that runs
	// the explorer's chooser, wave sharding and merge.
	{
		name:    "explore",
		prepare: func(_ int64, exp *expected, _ string) (instance, error) { return prepareExplore(exp, false) },
	},
	// The same model check over the fleet's lease protocol. Its CPU per
	// step equals explore's, so its gap to explore is the fleet, mostly
	// workers waiting between leases.
	{
		name:    "fleet-explore",
		prepare: func(_ int64, exp *expected, _ string) (instance, error) { return prepareExplore(exp, true) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// cellDigest hashes the RMR fields of bench cells, in order: the
// fields the regression gate and the claims engine read.
func cellDigest(cells []obs.Cell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s %s %d %d %d %d %d %d %s %d\n", c.Key(),
			strconv.FormatFloat(c.MeanRMR, 'g', -1, 64), c.WorstRMR, c.Steps,
			c.NonLocalSpins, c.MaxBypass, c.Aborts, c.Passages,
			strconv.FormatFloat(c.AmortizedRMR, 'g', -1, 64), c.MaxAbortResolve)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperSweep is every deterministic experiment at the size make report
// and make gate run (Quick), in sequence, each cell carrying the flight
// recorder cmd/report attaches by default; the artifacts are written
// and the claims registry evaluated over them, as cmd/report does. It
// always runs seed family paperSweepSeed.
type paperSweep struct {
	digest  string // expected cell digest ("": unchecked)
	cells   int    // expected cell count (0: unchecked)
	exps    []experiments.Experiment
	workDir string
}

func preparePaperSweep(exp *expected, workDir string) *paperSweep {
	s := &paperSweep{digest: exp.PaperSweep.Digest, cells: exp.PaperSweep.Cells, workDir: workDir}
	for _, e := range experiments.Registry() {
		if !e.WallClock {
			s.exps = append(s.exps, e)
		}
	}
	return s
}

// buildExperiment runs one experiment builder, turning its
// correctness panics into errors.
func buildExperiment(e experiments.Experiment, o experiments.Opts) (tables []harness.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", e.ID, r)
		}
	}()
	return e.Build(o), nil
}

func (s *paperSweep) pass(tr *tracer) (work, error) {
	var w work
	dir, err := os.MkdirTemp(s.workDir, "sweep-")
	if err != nil {
		return w, err
	}
	defer os.RemoveAll(dir)

	var pass spanRef
	if tr != nil {
		pass = tr.open()
	}
	var arts []*obs.Artifact
	for _, e := range s.exps {
		art := &obs.Artifact{
			Experiment: e.ID,
			CreatedBy:  "bench/perf",
			Params:     obs.Params{Quick: true, Seed: paperSweepSeed, Workers: workers},
		}
		o := experiments.Opts{
			Quick: true, Seed: paperSweepSeed, Workers: workers,
			Record: func(c obs.Cell) { art.Cells = append(art.Cells, c) },
			Sink: func(harness.Cell) memsim.EventSink {
				return trace.NewRecorder(trace.DefaultSpanLimit)
			},
		}
		var ref spanRef
		if tr != nil {
			ref = tr.open()
			o.Sink = func(harness.Cell) memsim.EventSink {
				return &timedSink{inner: trace.NewRecorder(trace.DefaultSpanLimit)}
			}
			o.Progress = tr.cellProgress(ref.id)
		}
		tables, err := buildExperiment(e, o)
		if tr != nil {
			tr.closeSeg(ref, "experiments."+e.ID, spanInfo{name: e.ID, cat: "experiments", parent: pass.id})
		}
		if err != nil {
			return w, err
		}
		for i := range tables {
			art.Tables = append(art.Tables, tables[i].JSON())
		}
		arts = append(arts, art)
	}

	var ref spanRef
	if tr != nil {
		ref = tr.open()
	}
	for _, a := range arts {
		if err := a.WriteFile(filepath.Join(dir, obs.ArtifactName(a.Experiment))); err != nil {
			return w, err
		}
	}
	if tr != nil {
		tr.closeSeg(ref, "obs.write", spanInfo{name: "write artifacts", cat: "obs", parent: pass.id})
		ref = tr.open()
	}
	bench, err := claims.LoadBenchDir(dir)
	if err != nil {
		return w, err
	}
	verdicts := claims.Evaluate(bench)
	if tr != nil {
		tr.closeSeg(ref, "claims.evaluate", spanInfo{name: "evaluate claims", cat: "claims", parent: pass.id})
		tr.close(pass, spanInfo{name: "pass", cat: "bench"})
	}

	var all []obs.Cell
	for _, a := range arts {
		a.Sort()
		all = append(all, a.Cells...)
	}
	for _, c := range all {
		w.steps += c.Steps
	}
	w.runs = int64(len(all))
	w.digest = cellDigest(all)
	for _, c := range verdicts.Claims {
		if c.Verdict != claims.Reproduced {
			return w, fmt.Errorf("paper-sweep: claim %s is %s: %s", c.ID, c.Verdict, c.Measured)
		}
	}
	if s.cells != 0 && len(all) != s.cells {
		return w, fmt.Errorf("paper-sweep: %d cells, want %d", len(all), s.cells)
	}
	if s.digest != "" && w.digest != s.digest {
		return w, fmt.Errorf("paper-sweep: RMR digest %s, want %s", w.digest, s.digest)
	}
	return w, nil
}

// bigNSweep sweeps bigNAlgorithms × {CC, DSM} at N=bigN with no sink,
// through the sweep engine with a telemetry registry attached.
type bigNSweep struct {
	seed     int64
	digest   string // expected digest: expected.json's, or else the first pass's
	n        int
	entries  int
	names    []string
	builders []harness.Builder
}

func prepareBigN(seed int64, exp *expected, _ string) (instance, error) {
	s := &bigNSweep{seed: seed, n: bigN, entries: bigNEntries, names: bigNAlgorithms}
	if seed == exp.BigN.Seed {
		s.digest = exp.BigN.Digest
	}
	for _, name := range s.names {
		b, err := experiments.Algorithm(name)
		if err != nil {
			return nil, err
		}
		s.builders = append(s.builders, b)
	}
	return s, nil
}

func (s *bigNSweep) pass(tr *tracer) (work, error) {
	var w work
	var cells []harness.Cell
	for i, name := range s.names {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			c := harness.Cell{
				Experiment: "big-n", Algorithm: name, Build: s.builders[i],
				Workload: harness.Workload{Model: model, N: s.n, Entries: s.entries, CSOps: 1, Seed: s.seed},
			}
			if tr != nil {
				c.Build = tr.timedBuilder(c.Build)
				c.Workload.Sched = &timedSched{inner: memsim.NewRandom(s.seed)}
			}
			cells = append(cells, c)
		}
	}
	reg := telemetry.New(nil)
	opts := harness.SweepOptions{Workers: workers, Metrics: reg}
	var pass spanRef
	if tr != nil {
		pass = tr.open()
		opts.Progress = tr.cellProgress(pass.id)
	}
	results := harness.SweepWith(cells, opts)
	if tr != nil {
		tr.close(pass, spanInfo{name: "pass", cat: "bench"})
		acct := reg.Snapshot().Histogram(harness.MetricSweepAccountUS)
		tr.addSeg("harness.account", microseconds(acct.Sum))
	}

	records := make([]obs.Cell, len(results))
	for i, r := range results {
		if r.Err != nil {
			return w, fmt.Errorf("big-n: %w", r.Err)
		}
		records[i] = r.Record()
		w.steps += r.Metrics.Result.Steps
		if r.Cell.Algorithm == "g-dsm" && r.Cell.Workload.Model == memsim.DSM && r.Metrics.NonLocalSpins != 0 {
			return w, fmt.Errorf("big-n: g-dsm spun non-locally on DSM (%d reads)", r.Metrics.NonLocalSpins)
		}
	}
	w.runs = int64(len(results))
	w.digest = cellDigest(records)
	if s.digest == "" {
		s.digest = w.digest
	} else if w.digest != s.digest {
		return w, fmt.Errorf("big-n: RMR digest %s at seed %d, want %s", w.digest, s.seed, s.digest)
	}
	return w, nil
}

// exploreCheck exhausts the exploreAlg schedule space through
// harness.CheckSharded, or through a loopback fleet when viaFleet.
type exploreCheck struct {
	viaFleet bool
	b        harness.Builder
	want     []modelExpect
}

func prepareExplore(exp *expected, viaFleet bool) (instance, error) {
	b, err := experiments.Algorithm(exploreAlg)
	if err != nil {
		return nil, err
	}
	if len(exp.Explore) == 0 {
		return nil, fmt.Errorf("explore: expected data lists no models")
	}
	return &exploreCheck{viaFleet: viaFleet, b: b, want: exp.Explore}, nil
}

func exploreOptions() harness.ExploreOptions {
	return harness.ExploreOptions{Preemptions: explorePreemptions, Workers: workers}
}

func fleetConfig() fleet.Config {
	return fleet.Config{Algorithm: exploreAlg, N: exploreN, Entries: exploreEntries, Preemptions: explorePreemptions}
}

func (x *exploreCheck) pass(tr *tracer) (work, error) {
	var (
		reports []harness.ModelReport
		err     error
		steps   int64 = -1
	)
	switch {
	case tr != nil && x.viaFleet:
		reports, err = tr.fleetCheck(x.b)
	case tr != nil:
		reports, steps, err = tr.shardedCheck(x.b)
	case x.viaFleet:
		reports, err = fleet.Check(x.b, fleetConfig(), fleet.CheckOptions{Workers: workers, Shards: 1})
	default:
		reports, err = harness.CheckSharded(x.b, exploreN, exploreEntries, exploreOptions())
	}
	return checkReports(reports, err, steps, x.want)
}

// checkReports compares a model check's reports with the expected
// per-model counts. The schedule space is fixed, so its simulated step
// total is a checked constant: passes that cannot count steps (the
// untraced and fleet paths) take it from the expected data, and the
// traced sharded path, which counts them through Explorer.Check, must
// agree with it.
func checkReports(reports []harness.ModelReport, err error, counted int64, want []modelExpect) (work, error) {
	var w work
	if err != nil {
		return w, fmt.Errorf("explore: %w", err)
	}
	if len(reports) != len(want) {
		return w, fmt.Errorf("explore: %d model reports, want %d", len(reports), len(want))
	}
	h := sha256.New()
	for i, r := range reports {
		e := want[i]
		got := modelExpect{Model: r.Model.String(), Runs: r.Result.Runs, DepthRuns: r.Result.DepthRuns, Steps: e.Steps}
		if !r.Result.Exhausted || got.Model != e.Model || got.Runs != e.Runs || !slices.Equal(got.DepthRuns, e.DepthRuns) {
			return w, fmt.Errorf("explore: model %s: runs %d depths %v exhausted %v, want %s: runs %d depths %v exhausted",
				got.Model, got.Runs, got.DepthRuns, r.Result.Exhausted, e.Model, e.Runs, e.DepthRuns)
		}
		fmt.Fprintf(h, "%s %d %v\n", got.Model, got.Runs, got.DepthRuns)
		w.runs += int64(e.Runs)
		w.steps += e.Steps
	}
	if counted >= 0 && counted != w.steps {
		return w, fmt.Errorf("explore: counted %d simulated steps, want %d", counted, w.steps)
	}
	w.digest = hex.EncodeToString(h.Sum(nil))
	return w, nil
}
