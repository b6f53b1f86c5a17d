// Package experiments implements the per-experiment index of DESIGN.md:
// every table regenerating the paper's claims (E1–E8) as a function
// returning harness.Table values. The same builders back the
// `bench_test.go` targets and cmd/report.
package experiments

import (
	"fmt"

	"fetchphi/internal/core"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/phi"
)

// Opts scales the experiment workloads.
type Opts struct {
	// Quick trims the sweeps for use inside `go test` (fewer process
	// counts, fewer entries). The full sweeps run in cmd/report and
	// in the recorded EXPERIMENTS.md.
	Quick bool
	// Seed selects the scheduler seed family.
	Seed int64
	// Workers caps the sweep engine's worker pool (0 = GOMAXPROCS).
	// Every cell carries its own seed, so the worker count never
	// changes results — only wall-clock time.
	Workers int
	// Record, when non-nil, receives one obs.Cell per measured
	// workload — the hook cmd/report uses to build benchmark
	// artifacts. Called sequentially from the experiment builder's
	// goroutine, after the cell's run completes.
	Record func(obs.Cell)
	// Sink, when non-nil, is asked for a memsim.EventSink for every
	// sweep cell before dispatch — the trace-recorder hook cmd/report
	// uses for flight recording. Called sequentially from the
	// experiment builder's goroutine; returning nil leaves the cell
	// unobserved. The sink becomes the cell's harness.Workload.Sink: a
	// harness.ReplaySink (a trace.Recorder) of a cell on the default
	// scheduler is handed a replay of the cell instead of watching it
	// run, so it costs nothing unless it is read. Each returned sink is
	// used only by the worker running its cell, so one recorder per
	// cell needs no locking.
	Sink func(harness.Cell) memsim.EventSink
	// OnFailure, when non-nil, observes a failed cell result just
	// before the sweep panics on it — the flight-recorder dump hook.
	// Called sequentially, at most once per sweep.
	OnFailure func(harness.CellResult)
	// Progress, when non-nil, receives the sweep engine's per-cell
	// start/completion events (the cmd/report -progress hook). Called
	// concurrently from the sweep workers; observation-only — it cannot
	// change any measured metric.
	Progress harness.Progress
}

func (o Opts) ns(full []int) []int {
	if !o.Quick {
		return full
	}
	var out []int
	for _, n := range full {
		if n <= 32 {
			out = append(out, n)
		}
	}
	return out
}

func (o Opts) entries() int {
	if o.Quick {
		return 4
	}
	return 10
}

// sweep shards the cells across the worker pool (the parallel sweep
// engine) and returns their metrics in input order, panicking on the
// first correctness failure — every experiment doubles as a
// correctness gate. Measured cells are forwarded to o.Record.
func (o Opts) sweep(cells []harness.Cell) []harness.Metrics {
	if o.Sink != nil {
		for i := range cells {
			cells[i].Workload.Sink = o.Sink(cells[i])
		}
	}
	results := harness.SweepWith(cells, harness.SweepOptions{Workers: o.Workers, Progress: o.Progress})
	out := make([]harness.Metrics, len(results))
	for i, r := range results {
		if r.Err != nil {
			if o.OnFailure != nil {
				o.OnFailure(r)
			}
			o.failCell(r.Cell, "%v", r.Err)
		}
		if o.Record != nil {
			o.Record(r.Record())
		}
		out[i] = r.Metrics
	}
	return out
}

// failCell panics with a correctness failure of cell c, naming the
// cell by its artifact key (harness.Cell.Key) and the cmd/report command
// that reproduces it.
func (o Opts) failCell(c harness.Cell, format string, args ...any) {
	quick := ""
	if o.Quick {
		quick = " -quick"
	}
	panic(fmt.Sprintf("experiments: %s: %s (reproduce: go run ./cmd/report%s -experiments %s -seed %d)",
		c.Key(), fmt.Sprintf(format, args...), quick, c.Experiment, o.Seed))
}

// Experiment is one registry entry: an experiment id and its table
// builder. WallClock marks time-based experiments (E9), which are
// nondeterministic by design: the regression gate skips their cells,
// and cmd/report sequences them after the simulations so concurrent
// simulation load does not pollute their timings.
type Experiment struct {
	ID        string
	WallClock bool
	Build     func(Opts) []harness.Table
}

// Registry returns the experiment builders keyed by id, in report
// order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Build: func(o Opts) []harness.Table { return []harness.Table{E1GCC(o)} }},
		{ID: "E2", Build: func(o Opts) []harness.Table { return []harness.Table{E2GDSM(o)} }},
		{ID: "E3", Build: func(o Opts) []harness.Table { return []harness.Table{E3Tree(o)} }},
		{ID: "E4", Build: func(o Opts) []harness.Table { return []harness.Table{E4AlgT(o)} }},
		{ID: "E5", Build: func(o Opts) []harness.Table { return []harness.Table{E5Ranks(o)} }},
		{ID: "E6", Build: func(o Opts) []harness.Table { return []harness.Table{E6Baselines(o)} }},
		{ID: "E7", Build: func(o Opts) []harness.Table { return []harness.Table{E7Fairness(o)} }},
		{ID: "E8", Build: E8Ablations},
		{ID: "E9", WallClock: true, Build: func(o Opts) []harness.Table { return []harness.Table{E9Native(o)} }},
		{ID: "E10", Build: func(o Opts) []harness.Table { return []harness.Table{E10Abortable(o)} }},
	}
}

// rank2N is E1's and E2's rank-≥2N primitives, named as their cells
// name them; each is built for the machine's process count.
var rank2N = []struct {
	name string
	prim func(n int) phi.Primitive
}{
	{"fetch-and-increment", func(int) phi.Primitive { return phi.FetchAndIncrement{} }},
	{"fetch-and-store", func(int) phi.Primitive { return phi.FetchAndStore{} }},
	{"2N-bounded-inc", func(n int) phi.Primitive { return phi.NewBoundedFetchInc(2 * n) }},
}

// E1GCC reproduces Lemma 1: G-CC has O(1) RMR per entry on CC
// machines, for every rank-≥2N primitive.
func E1GCC(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E1",
		Title:   "Algorithm G-CC on the CC model (Lemma 1)",
		Claim:   "worst-case RMR per entry stays O(1) as N grows, for any rank-2N primitive",
		Columns: []string{"N", "primitive", "mean RMR/entry", "worst RMR/entry", "max bypass"},
	}
	var cells []harness.Cell
	for _, n := range o.ns([]int{2, 4, 8, 16, 32, 64, 128, 256}) {
		for _, p := range rank2N {
			cells = append(cells, harness.Cell{
				Experiment: "E1", Algorithm: "g-cc/" + p.name,
				Build: func(m *memsim.Machine) harness.Algorithm {
					return core.NewGCC(m, p.prim(m.NumProcs()))
				},
				Workload: harness.Workload{Model: memsim.CC, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		w := cells[i].Workload
		t.AddRow(harness.Itoa(int64(w.N)), cells[i].Algorithm[len("g-cc/"):],
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR), harness.Itoa(met.MaxBypass))
	}
	return t
}

// E2GDSM reproduces Lemma 2: G-DSM has O(1) RMR per entry on DSM
// machines, spinning only locally.
func E2GDSM(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E2",
		Title:   "Algorithm G-DSM on the DSM model (Lemma 2)",
		Claim:   "worst-case RMR per entry stays O(1) as N grows; zero non-local spin reads",
		Columns: []string{"N", "primitive", "mean RMR/entry", "worst RMR/entry", "non-local spins"},
	}
	var cells []harness.Cell
	for _, n := range o.ns([]int{2, 4, 8, 16, 32, 64, 128, 256}) {
		for _, p := range rank2N {
			cells = append(cells, harness.Cell{
				Experiment: "E2", Algorithm: "g-dsm/" + p.name,
				Build: func(m *memsim.Machine) harness.Algorithm {
					return core.NewGDSM(m, p.prim(m.NumProcs()))
				},
				Workload: harness.Workload{Model: memsim.DSM, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		if met.NonLocalSpins != 0 {
			o.failCell(cells[i], "G-DSM spun non-locally %d times", met.NonLocalSpins)
		}
		w := cells[i].Workload
		t.AddRow(harness.Itoa(int64(w.N)), cells[i].Algorithm[len("g-dsm/"):],
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR), harness.Itoa(met.NonLocalSpins))
	}
	return t
}

// E3Tree reproduces Theorem 1: the arbitration tree over a rank-r
// primitive costs Θ(log_⌊r/2⌋ N) RMR per entry.
func E3Tree(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E3",
		Title:   "Arbitration tree over rank-r primitives, DSM model (Theorem 1)",
		Claim:   "worst RMR per entry grows with the tree height ⌈log_⌊r/2⌋ N⌉, not with N",
		Columns: []string{"N", "rank r", "height", "mean RMR/entry", "worst RMR/entry", "worst/height"},
	}
	var cells []harness.Cell
	var ranks, heights []int
	for _, n := range o.ns([]int{4, 16, 64, 256}) {
		for _, r := range []int{4, 8, 16, 64} {
			r := r
			ranks = append(ranks, r)
			heights = append(heights, core.TreeHeight(phi.NewBoundedFetchInc(r), n))
			cells = append(cells, harness.Cell{
				Experiment: "E3", Algorithm: fmt.Sprintf("tree/rank-%d", r),
				Build: func(m *memsim.Machine) harness.Algorithm {
					return core.NewTree(m, phi.NewBoundedFetchInc(r))
				},
				Workload: harness.Workload{Model: memsim.DSM, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		n, h := cells[i].Workload.N, heights[i]
		t.AddRow(harness.Itoa(int64(n)), harness.Itoa(int64(ranks[i])), harness.Itoa(int64(h)),
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR),
			harness.Ftoa(float64(met.WorstRMR)/float64(h)))
	}
	t.Notes = append(t.Notes,
		"worst/height ≈ constant across N at fixed r demonstrates the Θ(log_r N) shape",
		"higher rank ⇒ flatter tree ⇒ fewer RMRs at the same N (the log base)")
	return t
}

// E4AlgT reproduces Theorem 2: Algorithm T over a rank-3
// self-resettable primitive beats the binary arbitration tree's
// Θ(log₂ N) with Θ(log N / log log N).
func E4AlgT(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E4",
		Title:   "Algorithm T vs T0 vs the binary tree vs read/write-only, CC model (Theorem 2)",
		Claim:   "T and T0 heights grow like log N/log log N; the rank-4 tree and the read/write Yang–Anderson tree grow like log₂ N — the gap widens with N",
		Columns: []string{"N", "height T", "height tree", "worst T", "worst T0", "worst tree", "worst r/w", "mean T", "mean tree"},
	}
	ns := o.ns([]int{4, 16, 64, 256})
	var cells []harness.Cell
	for _, n := range ns {
		for _, name := range []string{"t", "t0", "tree4", "yang-anderson-tree"} {
			cells = append(cells, harness.Cell{
				Experiment: "E4", Algorithm: name, Build: builder(name),
				Workload: harness.Workload{Model: memsim.CC, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	mets := o.sweep(cells)
	for i, n := range ns {
		hT := core.THeight(n, core.TDegree(n))
		hTree := core.TreeHeight(phi.NewBoundedFetchInc(4), n)
		metT, metT0, metTree, metYA := mets[4*i], mets[4*i+1], mets[4*i+2], mets[4*i+3]
		t.AddRow(harness.Itoa(int64(n)), harness.Itoa(int64(hT)), harness.Itoa(int64(hTree)),
			harness.Itoa(metT.WorstRMR), harness.Itoa(metT0.WorstRMR), harness.Itoa(metTree.WorstRMR),
			harness.Itoa(metYA.WorstRMR),
			harness.Ftoa(metT.MeanRMR), harness.Ftoa(metTree.MeanRMR))
	}
	t.Notes = append(t.Notes,
		"Algorithm T uses the paper's canonical rank-3 self-resettable primitive (bounded inc/dec on 0..2)",
		"the rank-4 tree is the best Theorem-1 construction available to a rank-3 primitive's class",
		"the read/write column (Yang–Anderson tree) is what any fetch-and-φ construction must beat")
	return t
}

// E5Ranks reproduces the Sec. 2 rank examples: claimed vs empirically
// estimated rank for every primitive, plus self-resettability. Each
// primitive's row is independent of the others', so the rows are
// checked on the sweep's workers (o.Workers) and assembled in phi.All
// order; the worker count never changes the table.
func E5Ranks(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E5",
		Title:   "Rank of every fetch-and-φ primitive (Sec. 2 definition)",
		Claim:   "rank (blocking power) and consensus number (nonblocking power) are inverted: CAS is rank 2 / consensus ∞, fetch-and-inc/store are rank ∞ / consensus 2 (paper, Sec. 5)",
		Columns: []string{"primitive", "claimed rank", "estimated rank", "consensus number", "self-resettable", "reset identity"},
	}
	const n, cap = 6, 48
	trials := 4000
	if o.Quick {
		trials = 800
	}
	rows := phi.Survey(phi.All(n), o.Workers, func(prim phi.Primitive) []string {
		claimed := "∞"
		if prim.Rank() != phi.RankInfinite {
			claimed = harness.Itoa(int64(prim.Rank()))
		}
		est := phi.EstimateRank(prim, n, cap, trials, o.Seed+7)
		estStr := harness.Itoa(int64(est))
		if est == cap {
			estStr = "≥" + estStr
		}
		sr, isSR := prim.(phi.SelfResettable)
		srStr, idStr := "no", "—"
		if isSR {
			srStr = "yes"
			if err := phi.CheckSelfReset(sr, n, 200, 50, o.Seed+11); err != nil {
				idStr = "FAILED: " + err.Error()
			} else {
				idStr = "verified"
			}
		}
		cons := "∞"
		if c := phi.ConsensusNumber(prim); c != phi.RankInfinite {
			cons = harness.Itoa(int64(c))
		}
		return []string{prim.Name(), claimed, estStr, cons, srStr, idStr}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}

// labeled is a table's label for a cell and the registry name of the
// algorithm it runs: E6 and E7 keep their older labels ("test-and-set"
// for tas, primitive-qualified names for the generic algorithms).
type labeled struct{ label, alg string }

// E6Baselines reproduces the Sec. 1 prior-work attributes across both
// memory models.
func E6Baselines(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E6",
		Title:   "Prior spin locks on both models (Sec. 1 attributes)",
		Claim:   "TA/GT/CLH are O(1) on CC only (remote spins on DSM); MCS variants are local-spin on both; TAS/ticket degrade with N on CC",
		Columns: []string{"lock", "model", "N", "mean RMR/entry", "worst RMR/entry", "non-local spins"},
	}
	n := 16
	if o.Quick {
		n = 8
	}
	// The baselines, then the generic algorithm in the same table, for
	// the crossover.
	var cells []harness.Cell
	for _, a := range []labeled{
		{"test-and-set", "tas"}, {"ticket", "ticket"}, {"t-anderson", "t-anderson"},
		{"graunke-thakkar", "graunke-thakkar"}, {"mcs", "mcs"}, {"mcs-swap-only", "mcs-swap-only"},
		{"clh", "clh"}, {"g-dsm/fetch-and-store", "g-dsm/fas"},
	} {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			cells = append(cells, harness.Cell{
				Experiment: "E6", Algorithm: a.label, Build: builder(a.alg),
				Workload: harness.Workload{Model: model, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		c := cells[i]
		t.AddRow(c.Algorithm, c.Workload.Model.String(), harness.Itoa(int64(n)),
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR), harness.Itoa(met.NonLocalSpins))
	}
	return t
}

// E7Fairness compares bounded-bypass behavior: the paper's algorithms
// and queue locks are starvation-free; the swap-only MCS variant is
// not.
func E7Fairness(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E7",
		Title:   "Fairness: maximum bypass while in the entry section",
		Claim:   "starvation-free algorithms bound bypass under any scheduler; unfair locks degrade with run length under an adversary (mcs-swap-only's FIFO violation additionally needs an in-flight enqueue window: see TestMCSSwapOnlyViolatesFIFO)",
		Columns: []string{"algorithm", "bypass (short)", "bypass (long)", "bypass (adversarial, long)"},
	}
	n := 6
	entries := []int{10, 60}
	if o.Quick {
		entries = []int{5, 20}
	}
	algs := []labeled{
		{"g-cc/fetch-and-increment", "g-cc"}, {"g-dsm/fetch-and-store", "g-dsm/fas"},
		{"t0", "t0"}, {"t/bounded-inc-dec", "t"},
		{"mcs", "mcs"}, {"mcs-swap-only", "mcs-swap-only"}, {"ticket", "ticket"}, {"test-and-set", "tas"},
	}
	// Cells per algorithm: 8 seeds at each entry count, then one
	// adversarial run — a scheduler that starves process 0 whenever
	// anything else can run. Queue-based algorithms keep the victim's
	// bypass at its structural bound; unfair locks let the rest of the
	// system lap the victim for the whole run.
	var cells []harness.Cell
	for _, a := range algs {
		b := builder(a.alg)
		for _, e := range entries {
			for seed := int64(0); seed < 8; seed++ {
				cells = append(cells, harness.Cell{
					Experiment: "E7", Algorithm: a.label, Build: b,
					Workload: harness.Workload{Model: memsim.CC, N: n, Entries: e, CSOps: 1, Seed: o.Seed + seed},
				})
			}
		}
		cells = append(cells, harness.Cell{
			Experiment: "E7", Algorithm: a.label + "/adversarial", Build: b,
			Workload: harness.Workload{
				Model: memsim.CC, N: n, Entries: entries[1], CSOps: 1,
				// The cell's Seed is informational here (Sched wins);
				// keep it distinct so artifact cell keys stay unique.
				Seed:  o.Seed + 99,
				Sched: memsim.NewAdversary(o.Seed+99, 0),
			},
		})
	}
	mets := o.sweep(cells)
	perAlg := len(entries)*8 + 1
	for k, a := range algs {
		base := k * perAlg
		var bypass [2]int64
		for i := range entries {
			worst := int64(0)
			for seed := 0; seed < 8; seed++ {
				if by := mets[base+i*8+seed].MaxBypass; by > worst {
					worst = by
				}
			}
			bypass[i] = worst
		}
		adv := mets[base+perAlg-1]
		t.AddRow(a.label, harness.Itoa(bypass[0]), harness.Itoa(bypass[1]), harness.Itoa(adv.MaxBypass))
	}
	return t
}

// E8Ablations runs the design-choice ablations of DESIGN.md.
func E8Ablations(o Opts) []harness.Table {
	return []harness.Table{e8aStaleSignal(o), e8bTransformCost(o), e8cDegreeSweep(o), e8dExitHandshake(o), e8eCoherenceModel(o), e8fSpecialization(o)}
}

// e8aStaleSignal removes the stale-signal completion from G-CC and
// reports the first schedule that breaks it.
func e8aStaleSignal(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E8a",
		Title:   "Ablation: G-CC exactly as printed (no stale-signal clear at queue exchange)",
		Claim:   "a stale Signal key from a finished queue generation eventually breaks the queue discipline",
		Columns: []string{"N", "seeds tried", "failing seed", "failure"},
	}
	builder := func(m *memsim.Machine) harness.Algorithm {
		return core.NewGCCWithoutStaleClear(m, phi.FetchAndIncrement{})
	}
	for _, n := range []int{2, 3, 4} {
		found := false
		seeds := 60
		if o.Quick {
			seeds = 25
		}
		for seed := 0; seed < seeds; seed++ {
			_, err := harness.Run(builder, harness.Workload{
				Model: memsim.CC, N: n, Entries: 60, Seed: o.Seed + int64(seed),
				MaxSteps: 2_000_000,
			})
			if err != nil {
				t.AddRow(harness.Itoa(int64(n)), harness.Itoa(int64(seed+1)),
					harness.Itoa(o.Seed+int64(seed)), truncate(err.Error(), 60))
				found = true
				break
			}
		}
		if !found {
			t.AddRow(harness.Itoa(int64(n)), harness.Itoa(int64(seeds)), "—", "no failure found")
		}
	}
	return t
}

// e8bTransformCost compares G-DSM against G-CC on the CC model: the
// price of the Sec. 3 transformation when you don't need it, and the
// price of NOT applying it on DSM.
func e8bTransformCost(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E8b",
		Title:   "Ablation: the Sec. 3 transformation's constant-factor cost",
		Claim:   "G-DSM pays a constant factor over G-CC on CC machines; G-CC on DSM machines spins remotely",
		Columns: []string{"N", "algorithm", "model", "mean RMR/entry", "non-local spins"},
	}
	var cells []harness.Cell
	for _, n := range o.ns([]int{4, 16, 64}) {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			for _, name := range []string{"g-cc", "g-dsm"} {
				cells = append(cells, harness.Cell{
					Experiment: "E8b", Algorithm: name, Build: builder(name),
					Workload: harness.Workload{Model: model, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
				})
			}
		}
	}
	for i, met := range o.sweep(cells) {
		w := cells[i].Workload
		t.AddRow(harness.Itoa(int64(w.N)), cells[i].Algorithm, w.Model.String(),
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.NonLocalSpins))
	}
	return t
}

// e8cDegreeSweep sweeps Algorithm T's tree degree around the paper's
// √log N choice.
func e8cDegreeSweep(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E8c",
		Title:   "Ablation: Algorithm T tree-degree sweep (paper picks m = √log N)",
		Claim:   "degree √log N balances height (log_m N) against per-node child scans (m)",
		Columns: []string{"N", "degree", "height", "mean RMR/entry", "worst RMR/entry"},
	}
	n := 64
	if o.Quick {
		n = 27
	}
	degrees := []int{2, 3, 4, 6}
	var cells []harness.Cell
	for _, deg := range degrees {
		cells = append(cells, harness.Cell{
			Experiment: "E8c", Algorithm: fmt.Sprintf("t/degree-%d", deg),
			Build: func(m *memsim.Machine) harness.Algorithm {
				return core.NewTWithDegree(m, phi.BoundedIncDec{}, deg)
			},
			Workload: harness.Workload{Model: memsim.CC, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
		})
	}
	for i, met := range o.sweep(cells) {
		deg := degrees[i]
		h := core.THeight(n, deg)
		t.AddRow(harness.Itoa(int64(n)), harness.Itoa(int64(deg)), harness.Itoa(int64(h)),
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR))
	}
	return t
}

// e8dExitHandshake measures the paper's sketched exit-handshake
// extension: delegating the successor signal removes the exit
// section's old-queue wait without changing the RMR bound.
func e8dExitHandshake(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E8d",
		Title:   "Extension: exit-handshake (delegated successor signal) vs. printed G-DSM",
		Claim:   "the handshake eliminates exit-section blocking at unchanged O(1) RMRs (paper, Sec. 3 remark)",
		Columns: []string{"N", "variant", "mean RMR/entry", "worst RMR/entry", "await blocks (total)"},
	}
	var cells []harness.Cell
	for _, n := range o.ns([]int{4, 16, 64}) {
		for _, name := range []string{"g-dsm", "g-dsm-nowait"} {
			cells = append(cells, harness.Cell{
				Experiment: "E8d", Algorithm: name, Build: builder(name),
				Workload: harness.Workload{Model: memsim.DSM, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		var blocks int64
		for _, ps := range met.Result.Procs {
			blocks += ps.AwaitBlocks
		}
		t.AddRow(harness.Itoa(int64(cells[i].Workload.N)), cells[i].Algorithm,
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR), harness.Itoa(blocks))
	}
	return t
}

// e8eCoherenceModel measures RMR-model sensitivity: the same
// algorithms under write-invalidate CC, write-update CC, and DSM. The
// asymptotic classes are model-independent; the constants move between
// readers (invalidate: spinners pay per wake) and writers (update:
// writers pay per refresh).
func e8eCoherenceModel(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E8e",
		Title:   "Ablation: coherence-protocol sensitivity of the RMR measure",
		Claim:   "shapes are protocol-independent; write-update shifts spin costs from waiters to writers",
		Columns: []string{"algorithm", "model", "N", "mean RMR/entry", "worst RMR/entry"},
	}
	n := 16
	if o.Quick {
		n = 8
	}
	var cells []harness.Cell
	for _, name := range []string{"g-cc", "ticket", "mcs"} {
		for _, model := range []memsim.Model{memsim.CC, memsim.CCUpdate, memsim.DSM} {
			cells = append(cells, harness.Cell{
				Experiment: "E8e", Algorithm: name, Build: builder(name),
				Workload: harness.Workload{Model: model, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		t.AddRow(cells[i].Algorithm, cells[i].Workload.Model.String(), harness.Itoa(int64(n)),
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR))
	}
	return t
}

// e8fSpecialization measures the paper's closing suggestion that
// "exploiting the semantics of a particular primitive" buys constant
// factors: the fetch-and-increment specialization derives queue
// positions from fetch values and drops the shared Position counters.
func e8fSpecialization(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E8f",
		Title:   "Extension: fetch-and-increment specialization of G-CC (positions from fetch values)",
		Claim:   "dropping the Position counters saves a constant per exit; the O(1) class is unchanged (paper, Sec. 5 remark)",
		Columns: []string{"N", "variant", "mean RMR/entry", "worst RMR/entry"},
	}
	var cells []harness.Cell
	for _, n := range o.ns([]int{4, 16, 64}) {
		for _, name := range []string{"g-cc", "g-cc-specialized"} {
			cells = append(cells, harness.Cell{
				Experiment: "E8f", Algorithm: name, Build: builder(name),
				Workload: harness.Workload{Model: memsim.CC, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed},
			})
		}
	}
	for i, met := range o.sweep(cells) {
		t.AddRow(harness.Itoa(int64(cells[i].Workload.N)), cells[i].Algorithm,
			harness.Ftoa(met.MeanRMR), harness.Itoa(met.WorstRMR))
	}
	return t
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
