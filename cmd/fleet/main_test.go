package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer: serve runs in a
// background goroutine while the test polls its output for the bound
// address.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, argv := range [][]string{
		{},
		{"frobnicate"},
		{"run", "-alg", "no-such-algorithm"},
		{"run", "-n", "0"},
		{"work"},
		{"status"},
		{"serve", "-alg", "no-such-algorithm"},
	} {
		if code := run(argv, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", argv, code)
		}
	}
}

// TestRunSubcommand drives the full in-process fleet through the CLI
// and checks the artifact against a single-machine reference.
func TestRunSubcommand(t *testing.T) {
	ref, refErr := harness.CheckSharded(mustBuilder(t, "g-dsm"), 2, 1, harness.ExploreOptions{Preemptions: 1, Workers: 1})
	if refErr != nil {
		t.Fatalf("reference check failed: %v", refErr)
	}

	out := filepath.Join(t.TempDir(), "fleet.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-alg", "g-dsm", "-n", "2", "-entries", "1",
		"-preemptions", "1", "-workers", "3", "-lease-size", "4", "-out", out},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("fleet run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	art, err := obs.ReadExploreArtifact(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Models) != len(ref) {
		t.Fatalf("artifact has %d models, want %d", len(art.Models), len(ref))
	}
	for i, r := range ref {
		m := art.Models[i]
		if m.Model != r.Model.String() || m.Runs != r.Result.Runs || !m.Exhausted || m.Pending != nil {
			t.Fatalf("model %d: got %+v, want %+v and no resume point", i, m, r.Result)
		}
	}
	if !art.Checkpoint {
		t.Fatal("fleet artifact is not marked a checkpoint")
	}
	if !strings.Contains(stdout.String(), "OK: no violation") {
		t.Fatalf("stdout: %s", stdout.String())
	}
	// The verdict lines are cmd/explore's, one per model.
	for _, r := range ref {
		line := fmt.Sprintf("%v: %d schedules (exhausted; per-depth %v)\n", r.Model, r.Result.Runs, r.Result.DepthRuns)
		if !strings.Contains(stdout.String(), line) {
			t.Fatalf("stdout lacks %q:\n%s", line, stdout.String())
		}
	}
}

// TestServeWorkStatus exercises the multi-process topology in one
// process: serve in a goroutine, a worker and a status probe as
// separate run() calls against the served address.
func TestServeWorkStatus(t *testing.T) {
	serveOut := &syncBuffer{}
	serveErr := &syncBuffer{}
	serveDone := make(chan int, 1)
	go func() {
		// The grace period outlasts the coordinator's 100 ms retry
		// hint, so a worker told to wait just before completion still
		// finds the server up to answer "done".
		serveDone <- run([]string{"serve", "-listen", "127.0.0.1:0",
			"-alg", "g-dsm", "-n", "2", "-entries", "1", "-preemptions", "1",
			"-grace", "500ms"}, serveOut, serveErr)
	}()

	addr := waitForAddr(t, serveOut)
	url := "http://" + addr

	var statusOut, statusErr bytes.Buffer
	if code := run([]string{"status", "-coordinator", url}, &statusOut, &statusErr); code != 0 {
		t.Fatalf("status exited %d: %s", code, statusErr.String())
	}
	if !strings.Contains(statusOut.String(), "g-dsm: running") {
		t.Fatalf("status: %s", statusOut.String())
	}

	var workOut, workErr bytes.Buffer
	if code := run([]string{"work", "-coordinator", url, "-id", "t1"}, &workOut, &workErr); code != 0 {
		t.Fatalf("work exited %d: %s", code, workErr.String())
	}
	if code := <-serveDone; code != 0 {
		t.Fatalf("serve exited %d\nstdout: %s\nstderr: %s", code, serveOut.String(), serveErr.String())
	}
	if !strings.Contains(serveOut.String(), "OK: no violation") {
		t.Fatalf("serve stdout: %s", serveOut.String())
	}
}

// waitForAddr polls serve's stdout for the bound listen address.
func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := out.String()
		if i := strings.Index(s, " on 127.0.0.1:"); i >= 0 {
			rest := s[i+len(" on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(rest[:j])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("serve never reported its address; output: %s", out.String())
	return ""
}

func mustBuilder(t *testing.T, name string) harness.Builder {
	t.Helper()
	b, err := experiments.Algorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
