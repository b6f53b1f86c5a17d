package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fetchphi/internal/obs"
)

// runExplore invokes the command body exactly as main does, capturing
// both streams.
func runExplore(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(argv, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"zero procs", []string{"-n", "0"}},
		{"zero entries", []string{"-entries", "0"}},
		{"negative preemptions", []string{"-preemptions", "-1"}},
		{"zero maxruns", []string{"-maxruns", "0"}},
		{"negative workers", []string{"-workers", "-3"}},
		{"unknown algorithm", []string{"-alg", "no-such-lock"}},
		// Checkpoints and capacity artifacts are fleet run's alone.
		{"checkpoint", []string{"-checkpoint", "x"}},
		{"capacity", []string{"-capacity", "x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runExplore(t, tc.argv...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
			if stderr == "" {
				t.Fatal("usage error produced no diagnostic")
			}
		})
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := runExplore(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"g-dsm", "tas", "token-abortable", "yang-anderson-tree"} {
		if !strings.Contains(stdout, name) {
			t.Fatalf("-list output missing %q:\n%s", name, stdout)
		}
	}
}

// TestRunAbortableAlgorithm: an abortable lock is a registered
// algorithm, checked abort-free like any other.
func TestRunAbortableAlgorithm(t *testing.T) {
	code, stdout, stderr := runExplore(t,
		"-alg", "token-abortable", "-n", "2", "-entries", "1", "-preemptions", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "OK:") {
		t.Fatalf("no OK line:\n%s", stdout)
	}
}

func TestRunSuccessWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), obs.ExploreArtifactName("tas"))
	code, stdout, stderr := runExplore(t,
		"-alg", "tas", "-n", "2", "-entries", "1", "-preemptions", "2",
		"-workers", "4", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "OK:") {
		t.Fatalf("no OK line:\n%s", stdout)
	}
	art, err := obs.ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != obs.ExploreSchema || art.Algorithm != "tas" || art.Workers != 4 {
		t.Fatalf("artifact header: %+v", art)
	}
	if len(art.Models) != 2 || !art.AllExhausted() || art.TotalRuns() == 0 {
		t.Fatalf("artifact coverage: %+v", art)
	}
	for _, m := range art.Models {
		sum := 0
		for _, d := range m.DepthRuns {
			sum += d
		}
		if sum != m.Runs || m.Failure != "" {
			t.Fatalf("model %s: %+v", m.Model, m)
		}
	}
}

func TestRunRequireExhaustedFailsOnTinyBudget(t *testing.T) {
	code, stdout, stderr := runExplore(t,
		"-alg", "tas", "-n", "2", "-entries", "1", "-preemptions", "2",
		"-maxruns", "2", "-require-exhausted")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "not exhausted") {
		t.Fatalf("stderr: %s", stderr)
	}
	if want := "CC: 2 schedules (NOT exhausted; per-depth [1 1])\nDSM: 2 schedules (NOT exhausted; per-depth [1 1])\n"; !strings.Contains(stdout, want) {
		t.Fatalf("stdout lacks the verdict lines %q:\n%s", want, stdout)
	}
}

func TestRunProgressStreamsToStderr(t *testing.T) {
	code, _, stderr := runExplore(t,
		"-alg", "tas", "-n", "2", "-entries", "1", "-preemptions", "2",
		"-workers", "2", "-progress")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stderr, "progress:") {
		t.Fatalf("no progress lines on stderr:\n%s", stderr)
	}
}

// TestArtifactGoldenAcrossWorkerCounts is the end-to-end determinism
// gate: the artifact a 1-worker run writes and the one an 8-worker run
// writes must be identical once the fields documented as wall-clock
// (and the worker count itself) are zeroed.
func TestArtifactGoldenAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	load := func(workers string) *obs.ExploreArtifact {
		t.Helper()
		path := filepath.Join(dir, "w"+workers+".json")
		code, stdout, stderr := runExplore(t,
			"-alg", "tas", "-n", "2", "-entries", "2", "-preemptions", "2",
			"-workers", workers, "-out", path)
		if code != 0 {
			t.Fatalf("workers=%s exit %d\nstdout: %s\nstderr: %s", workers, code, stdout, stderr)
		}
		art, err := obs.ReadExploreArtifact(path)
		if err != nil {
			t.Fatal(err)
		}
		art.Commit, art.WallMS, art.SchedulesPerSec, art.Workers = "", 0, 0, 0
		return art
	}
	seq, par := load("1"), load("8")
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("artifacts diverge across worker counts:\n workers=1: %+v\n workers=8: %+v", seq, par)
	}
}

// TestRunZeroPreemptionsIsExactlyOneSchedule: the -preemptions 0
// regression at the CLI layer — an explicit zero runs exactly one
// schedule per model instead of being promoted to the default bound.
func TestRunZeroPreemptionsIsExactlyOneSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zero.json")
	code, stdout, stderr := runExplore(t,
		"-alg", "g-dsm", "-n", "2", "-entries", "1", "-preemptions", "0",
		"-out", path)
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	if want := "CC: 1 schedules (exhausted; per-depth [1])\nDSM: 1 schedules (exhausted; per-depth [1])\n"; !strings.Contains(stdout, want) {
		t.Fatalf("stdout lacks the verdict lines %q:\n%s", want, stdout)
	}
	art, err := obs.ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range art.Models {
		if m.Runs != 1 || !reflect.DeepEqual(m.DepthRuns, []int{1}) {
			t.Fatalf("model %s: non-preemptive run explored %+v, want exactly one schedule", m.Model, m)
		}
	}
}
