package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/claims"
	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/trace"
)

// TestSelectExperiments covers the -experiments subset parsing:
// "all", case-insensitive ids, whitespace, unknown ids, and the empty
// selection.
func TestSelectExperiments(t *testing.T) {
	registry := experiments.Registry()

	all, err := selectExperiments("all", registry)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(registry) {
		t.Fatalf("all selected %d experiments, want %d", len(all), len(registry))
	}

	subset, err := selectExperiments(" e1 ,E9", registry)
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || !subset["E1"] || !subset["E9"] {
		t.Fatalf("subset = %v, want {E1, E9}", subset)
	}

	if _, err := selectExperiments("E1,nope", registry); err == nil {
		t.Fatal("unknown experiment id accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error does not name the bad id: %v", err)
	}

	if _, err := selectExperiments(" , ,", registry); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// runArgs invokes the testable entry point, returning the exit code
// and combined output streams.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRunUsageErrors checks the exit-code contract for the flag
// errors CI scripts depend on: all of these must fail fast (exit 2)
// without running any experiment.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"zero degrade", []string{"-degrade", "0"}, "-degrade must be positive"},
		{"negative degrade", []string{"-degrade", "-2"}, "-degrade must be positive"},
		{"unknown experiment", []string{"-experiments", "E42"}, "unknown experiment"},
		{"empty experiments", []string{"-experiments", ","}, "no experiments selected"},
		{"missing baseline dir", []string{"-baseline", filepath.Join(t.TempDir(), "absent")}, "does not exist"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runArgs(tc.args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}

// TestRunBaselineFileNotDir: -baseline pointing at a file (not a
// directory) is the same usage error as a missing directory.
func TestRunBaselineFileNotDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runArgs("-baseline", file)
	if code != 2 || !strings.Contains(stderr, "does not exist") {
		t.Fatalf("exit = %d, stderr = %q; want 2 / missing-baseline error", code, stderr)
	}
}

// TestRunWritesArtifact runs the cheapest real experiment end to end
// and checks the artifact lands where -out points, with the wall-clock
// marker and schema intact (E9 also exercises the sequenced-last path:
// a selection with no simulation experiments must still work).
func TestRunWritesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	dir := t.TempDir()
	code, stdout, stderr := runArgs("-experiments", "E9", "-quick", "-out", dir)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "E9:") {
		t.Fatalf("stdout has no E9 summary: %q", stdout)
	}
	art, err := obs.ReadArtifact(filepath.Join(dir, obs.ArtifactName("E9")))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) == 0 {
		t.Fatal("E9 artifact has no cells")
	}
	for _, c := range art.Cells {
		if !c.WallClock {
			t.Fatalf("E9 cell %s not marked wall-clock", c.Key())
		}
	}
}

// TestRunWritesClaimsArtifact: every sweep ends with a claims
// evaluation over the output directory — E1 alone reproduces Lemma 1,
// leaves the other claims inconclusive (notes, exit 0), and writes
// both the fetchphi.claims/v1 artifact and the HTML report.
func TestRunWritesClaimsArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	dir := t.TempDir()
	code, stdout, stderr := runArgs("-experiments", "E1", "-quick", "-out", dir)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	art, err := claims.ReadArtifact(filepath.Join(dir, claims.ArtifactFileName))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[string]claims.Verdict, len(art.Claims))
	for _, c := range art.Claims {
		verdicts[c.ID] = c.Verdict
	}
	if verdicts["lemma-1"] != claims.Reproduced {
		t.Fatalf("lemma-1 = %s from a quick E1 sweep, want reproduced", verdicts["lemma-1"])
	}
	if verdicts["lemma-2"] != claims.Inconclusive {
		t.Fatalf("lemma-2 = %s without E2, want inconclusive", verdicts["lemma-2"])
	}
	if !strings.Contains(stdout, "claims:") {
		t.Fatalf("stdout has no claims summary: %q", stdout)
	}
	html, err := os.ReadFile(filepath.Join(dir, "claims.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<svg") {
		t.Fatal("claims.html has no figures")
	}

	// -claims=false skips the evaluation entirely.
	dir2 := t.TempDir()
	code, _, stderr = runArgs("-experiments", "E1", "-quick", "-claims=false", "-out", dir2)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir2, claims.ArtifactFileName)); !os.IsNotExist(err) {
		t.Fatal("-claims=false still wrote CLAIMS.json")
	}
}

// TestRunProgressStreams: -progress emits per-cell lines on stderr;
// without the flag stderr stays silent. The artifacts must be
// byte-identical either way — progress is observation-only.
func TestRunProgressStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	quiet := t.TempDir()
	code, _, stderr := runArgs("-experiments", "E1", "-quick", "-out", quiet)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if strings.Contains(stderr, "progress:") {
		t.Fatalf("progress lines without -progress:\n%s", stderr)
	}

	loud := t.TempDir()
	code, _, stderr = runArgs("-experiments", "E1", "-quick", "-progress", "-out", loud)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	lines := 0
	for _, l := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(l, "progress: E1 ") {
			continue
		}
		lines++
		if !strings.Contains(l, "/") || !strings.Contains(l, "running ") || !strings.Contains(l, "N=") {
			t.Fatalf("malformed progress line: %q", l)
		}
	}
	if lines == 0 {
		t.Fatalf("-progress produced no progress lines:\n%s", stderr)
	}

	a, err := os.ReadFile(filepath.Join(quiet, obs.ArtifactName("E1")))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(loud, obs.ArtifactName("E1")))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("-progress changed the written artifact")
	}
}

// TestVerboseTablesInRegistryOrder: -v prints every table once the
// sweep is done, in registry order (E2 before E10, unlike the sorted
// ids), however the concurrent experiments happened to finish.
func TestVerboseTablesInRegistryOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	code, stdout, stderr := runArgs("-experiments", "E10,E2,E1", "-quick", "-v", "-claims=false", "-flight", "0", "-out", t.TempDir())
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	var ids []string
	for _, l := range strings.Split(stdout, "\n") {
		if id, _, ok := strings.Cut(l, " — "); ok && !strings.HasPrefix(l, " ") {
			ids = append(ids, id)
		}
	}
	if got := strings.Join(ids, ","); got != "E1,E2,E10" {
		t.Fatalf("tables printed as %s, want E1,E2,E10:\n%s", got, stdout)
	}
	if first := strings.Index(stdout, "E1 — "); first < 0 || strings.Index(stdout, "E1: ") < first {
		t.Fatalf("tables do not precede the artifact lines:\n%s", stdout)
	}
}

// TestRegistryMarksOnlyE9WallClock pins the wall-clock partition the
// report sequencing depends on.
func TestRegistryMarksOnlyE9WallClock(t *testing.T) {
	for _, e := range experiments.Registry() {
		if e.WallClock != (e.ID == "E9") {
			t.Fatalf("experiment %s WallClock = %v", e.ID, e.WallClock)
		}
	}
}

// TestGateRegressionDumpsFlightRecorder forces a gate regression (via
// -degrade) and checks the regressed cells' flight-recorder windows
// land as valid fetchphi.trace/v1 artifacts that convert to
// Perfetto-loadable Chrome JSON — the acceptance path for the trace
// subsystem.
func TestGateRegressionDumpsFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments twice")
	}
	baseDir := t.TempDir()
	curDir := t.TempDir()

	code, _, stderr := runArgs("-experiments", "E1", "-quick", "-out", baseDir)
	if code != 0 {
		t.Fatalf("baseline run exit %d: %s", code, stderr)
	}

	code, _, stderr = runArgs("-experiments", "E1", "-quick",
		"-out", curDir, "-baseline", baseDir, "-degrade", "2")
	if code != 1 {
		t.Fatalf("degraded run exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "regression gate FAILED") {
		t.Fatalf("gate did not fire: %s", stderr)
	}
	if !strings.Contains(stderr, "wrote flight recorder") {
		t.Fatalf("no flight-recorder dump announced: %s", stderr)
	}

	traces, err := filepath.Glob(filepath.Join(curDir, "traces", "TRACE_*.json"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no trace artifacts written (err=%v)", err)
	}
	for _, path := range traces {
		a, err := obs.ReadTraceArtifact(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if a.Kind != "flight-recorder" || a.Reason == "" || a.Cell == "" {
			t.Fatalf("%s: not a reasoned flight-recorder dump: kind=%q reason=%q cell=%q",
				path, a.Kind, a.Reason, a.Cell)
		}
		if len(a.Spans) == 0 {
			t.Fatalf("%s: empty span timeline", path)
		}
		chrome, err := trace.ChromeTrace(a)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := trace.ValidateChrome(chrome); err != nil {
			t.Fatalf("%s: conversion not Perfetto-loadable: %v", path, err)
		}
	}
}

// TestFlightDisabled: -flight 0 runs clean and writes no trace
// directory; -flight must reject negatives.
func TestFlightDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	dir := t.TempDir()
	code, _, stderr := runArgs("-experiments", "E1", "-quick", "-flight", "0", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "traces")); !os.IsNotExist(err) {
		t.Fatalf("flight recording off must not create a traces dir (err=%v)", err)
	}
	if code, _, _ := runArgs("-flight", "-1"); code != 2 {
		t.Fatal("negative -flight accepted")
	}
}

// brokenLock grants the critical section without excluding anyone.
type brokenLock struct{}

func (brokenLock) Name() string           { return "broken" }
func (brokenLock) Acquire(p *memsim.Proc) {}
func (brokenLock) Release(p *memsim.Proc) {}

// TestFlightReplayDumpMatchesLive: a failing cell swept with its
// recorder deferred (the default scheduler) dumps, on failure, the
// replayed flight recording byte for byte as the same cell recorded
// live (an explicit scheduler seeded alike) dumps it, reason included.
func TestFlightReplayDumpMatchesLive(t *testing.T) {
	cell := harness.Cell{
		Experiment: "TEST",
		Algorithm:  "broken",
		Build:      func(*memsim.Machine) harness.Algorithm { return brokenLock{} },
		Workload:   harness.Workload{Model: memsim.CC, N: 3, Entries: 4, CSOps: 1, Seed: 2},
	}
	dumpOf := func(c harness.Cell) []byte {
		fl := newFlightLog(trace.DefaultSpanLimit, t.TempDir())
		c.Workload.Sink = fl.attach(c)
		r := harness.SweepWith([]harness.Cell{c}, harness.SweepOptions{Workers: 1})[0]
		if r.Err == nil {
			t.Fatal("the broken lock passed")
		}
		path, err := fl.dumpFailure(r)
		if err != nil {
			t.Fatal(err)
		}
		a, err := obs.ReadTraceArtifact(path)
		if err != nil {
			t.Fatal(err)
		}
		if a.Reason != r.Err.Error() || len(a.Spans) == 0 {
			t.Fatalf("dump reason %q with %d spans, want %q and a timeline", a.Reason, len(a.Spans), r.Err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	replayed := dumpOf(cell)
	cell.Workload.Sched = memsim.NewRandom(cell.Workload.Seed)
	if live := dumpOf(cell); !bytes.Equal(replayed, live) {
		t.Fatalf("replayed flight dump differs from the live one:\n got %s\nwant %s", replayed, live)
	}
}
