package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
	"fetchphi/internal/trace"
)

func mustExpected(t *testing.T) *expected {
	t.Helper()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// tracedPass runs one traced pass that keeps its spans, and checks the
// span tree and its Chrome rendering.
func tracedPass(t *testing.T, inst instance) work {
	t.Helper()
	tr := newTracer()
	tr.keep = true
	w, err := inst.pass(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) == 0 {
		t.Fatal("traced pass recorded no spans")
	}
	self, err := checkSpans(tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range self {
		if d < 0 {
			t.Fatalf("span %d: negative self time %v", id, d)
		}
	}
	data, err := tr.chromeJSON("test")
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatal(err)
	}
	return w
}

// The quick seed-1 sweep the paper-sweep workload times reproduces the
// checked-in bench/baseline artifacts on every RMR field, through the
// traced pass's sink, progress and span wrappers.
func TestPaperSweepMatchesBaseline(t *testing.T) {
	exp := mustExpected(t)
	var base []obs.Cell
	for _, e := range experiments.Registry() {
		if e.WallClock {
			continue
		}
		a, err := obs.ReadArtifact(filepath.Join("..", "baseline", obs.ArtifactName(e.ID)))
		if err != nil {
			t.Fatal(err)
		}
		a.Sort()
		base = append(base, a.Cells...)
	}
	want := cellDigest(base)
	if exp.PaperSweep.Digest != want || exp.PaperSweep.Cells != len(base) {
		t.Fatalf("expected.json: %d cells digest %s, the baseline has %d cells digest %s",
			exp.PaperSweep.Cells, exp.PaperSweep.Digest, len(base), want)
	}
	w := tracedPass(t, preparePaperSweep(exp, t.TempDir()))
	if w.runs != int64(len(base)) || w.digest != want {
		t.Fatalf("sweep: %d cells digest %s, want %d cells digest %s", w.runs, w.digest, len(base), want)
	}
}

// g-dsm at N=2, K=2 explores 5392 schedules per model at depths
// [1 79 5312], through CheckSharded and a loopback fleet, traced or
// not; the traced sharded path counts exactly the expected steps, and
// reports whose counts differ are rejected.
func TestExploreCounts(t *testing.T) {
	exp := mustExpected(t)
	for _, m := range exp.Explore {
		if m.Runs != 5392 || !slices.Equal(m.DepthRuns, []int{1, 79, 5312}) {
			t.Fatalf("expected.json model %s: runs %d depths %v, want 5392 [1 79 5312]", m.Model, m.Runs, m.DepthRuns)
		}
	}
	b, err := experiments.Algorithm(exploreAlg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := harness.CheckSharded(b, exploreN, exploreEntries, exploreOptions())
	want, err := checkReports(reports, err, -1, exp.Explore)
	if err != nil {
		t.Fatal(err)
	}
	if want.runs != 2*5392 {
		t.Fatalf("%d schedules, want %d", want.runs, 2*5392)
	}
	if _, err := checkReports(reports, nil, want.steps+1, exp.Explore); err == nil {
		t.Error("a miscounted step total was accepted")
	}
	bad := slices.Clone(exp.Explore)
	bad[1].Runs++
	if _, err := checkReports(reports, nil, -1, bad); err == nil {
		t.Error("wrong schedule counts were accepted")
	}

	fleetInst, err := prepareExplore(exp, true)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := prepareExplore(exp, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fleetInst.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fleet: %+v, want %+v", got, want)
	}
	for _, inst := range []instance{sharded, fleetInst} {
		if got := tracedPass(t, inst); got != want {
			t.Errorf("traced %T: %+v, want %+v", inst, got, want)
		}
	}
}

// Every sweep timing wrapper (builder, scheduler, progress) is
// observation-only: on an N=16 big-n variant the traced digest is the
// untraced one.
func TestTracedDigestsMatch(t *testing.T) {
	inst, err := prepareBigN(1, mustExpected(t), "")
	if err != nil {
		t.Fatal(err)
	}
	small := inst.(*bigNSweep)
	small.n, small.digest = 16, ""
	plain, err := small.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced := tracedPass(t, small); traced != plain {
		t.Fatalf("big-n N=16: traced %+v, untraced %+v", traced, plain)
	}
}

// BenchmarkPass runs one untraced pass of each workload per iteration.
// It is for profiling where a workload's time goes, as the why of each
// workload records:
//
//	go test -run '^$' -bench 'Pass/^explore$' -benchtime 8x -cpuprofile cpu.out
//	go tool pprof -top -cum cpu.out
func BenchmarkPass(b *testing.B) {
	exp, err := loadExpected()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			inst, err := w.prepare(1, exp, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := inst.pass(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A run stops at the first incorrect pass and reports it as failed.
func TestIncorrectRunFails(t *testing.T) {
	exp := mustExpected(t)
	bad := *exp
	bad.PaperSweep.Digest = "not-the-digest"
	w, err := findWorkload("paper-sweep")
	if err != nil {
		t.Fatal(err)
	}
	o, err := measure(w, &bad, runConfig{seed: 1, seconds: time.Nanosecond, workDir: t.TempDir()}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if o.err == nil || o.failed == 0 || len(o.passes) != 0 {
		t.Fatalf("paper-sweep with a wrong digest: err=%v failed=%d passes=%d", o.err, o.failed, len(o.passes))
	}
}

// The metric and workload lists the command prints are the ones
// BENCHMARK.json declares.
func TestBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"bench/perf"}) {
		t.Errorf("paths %v", b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, ours)
	}
	for _, c := range []struct {
		kind string
		spec []metricSpec
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, e2eMetrics}, {"per_layer", b.PerLayer, layerMetrics}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4), the
// spread measure the benchmark's acceptance uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// compare flags a median that moved beyond its bound and passes sides
// that agree.
func TestCompare(t *testing.T) {
	specPath := filepath.Join("..", "..", "BENCHMARK.json")
	write := func(dir string, walls ...float64) {
		for i, w := range walls {
			rf := resultsFile{Schema: resultsSchema, Workload: "explore", Seed: int64(i + 1), Correct: true,
				Metrics: map[string]metricValue{}}
			for _, m := range e2eMetrics {
				rf.Metrics[m.name] = metricValue{Value: 1, Unit: m.unit}
			}
			rf.Metrics["wall_s"] = metricValue{Value: w, Unit: "s"}
			data, err := json.Marshal(rf)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("explore-s%d.json", i+1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1.00, 1.01, 0.99)
	write(same, 1.02, 1.00, 0.98)
	write(slow, 1.50, 1.51, 1.49)
	var out bytes.Buffer
	if code := run([]string{"compare", "-spec", specPath, a, same}, &out, &out); code != 0 {
		t.Fatalf("agreeing sides: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", "-spec", specPath, a, slow}, &out, &out); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("slower side: exit %d\n%s", code, out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"compare", "only-one-dir"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("run(%v) = %d, want 2\n%s", args, code, out.String())
		}
	}
}
