package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/fleet"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// cannedState is a fixed dashboard frame: rendering is a pure function
// of this state, so the frame format is pinned without a live fleet.
func cannedState() *fleetState {
	var wave obs.Histogram
	for _, us := range []int64{900, 1_100, 2_000, 450_000} {
		wave.Observe(us)
	}
	return &fleetState{
		Status: fleet.StatusResponse{
			Algorithm: "g-dsm", State: "running",
			Model: "CC", Depth: 3, Frontier: 120,
			RangesPending: 2, RangesLeased: 1, RangesDone: 5,
			Workers: []fleet.WorkerStatus{
				{Worker: "w0", LastSeenMS: 12},
				{Worker: "w1", LastSeenMS: 480},
			},
		},
		Metrics: telemetry.Snapshot{
			ElapsedUS: 2_000_000, // 2s at 10784 schedules → 5392/s
			Counters: []telemetry.CounterValue{
				{Name: fleet.MetricLeases, Value: 10},
				{Name: fleet.MetricReLeases, Value: 1},
				{Name: fleet.MetricSchedules, Value: 10784},
				{Name: fleet.MetricStaleReports, Value: 2},
				{Name: fleet.MetricWaves, Value: 4},
				{Name: fleet.WorkerMetric("w0", "leases"), Value: 6},
				{Name: fleet.WorkerMetric("w0", "schedules"), Value: 6000},
				{Name: fleet.WorkerMetric("w1", "leases"), Value: 4},
				{Name: fleet.WorkerMetric("w1", "schedules"), Value: 4784},
			},
			Histograms: []telemetry.HistogramValue{
				{Name: fleet.MetricWaveUS, Hist: wave},
			},
		},
	}
}

// writeExplore drops a minimal explore artifact into dir.
func writeExplore(t *testing.T, dir, alg string, models []obs.ExploreModel) {
	t.Helper()
	art := &obs.ExploreArtifact{Schema: obs.ExploreSchema, Algorithm: alg, Models: models}
	if err := art.WriteFile(filepath.Join(dir, obs.ExploreArtifactName(alg))); err != nil {
		t.Fatal(err)
	}
}

// TestRenderDashboard pins one frame of the coverage dashboard against
// canned state: headline, throughput/churn line, wave quantiles, worker
// liveness, the coverage grid with the running-campaign marker, and the
// exhaustion footer.
func TestRenderDashboard(t *testing.T) {
	dir := t.TempDir()
	writeExplore(t, dir, "g-dsm", []obs.ExploreModel{
		{Model: "CC", Runs: 100, Exhausted: true},
		{Model: "DSM", Runs: 50, Exhausted: false},
	})
	writeExplore(t, dir, "yellqueue", []obs.ExploreModel{
		{Model: "CC", Runs: 10, Failure: "mutual exclusion violated"},
	})

	var out bytes.Buffer
	algs := []string{"g-dsm", "tas", "yellqueue"}
	renderDashboard(&out, cannedState(), algs, coverageModels(), loadCoverage(dir), dir)
	frame := out.String()

	for _, want := range []string{
		"g-dsm: running — wave CC depth=3 frontier=120 (2 pending / 1 leased / 5 done ranges)",
		"waves 4  schedules 10784 (5392/s)  leases 10  re-lease 10.0%  stale 2",
		"wave time p50 ",
		"(4 waves timed)",
		"  w0              6 leases      6000 schedules (3000/s)  seen 12ms ago",
		"  w1              4 leases      4784 schedules (2392/s)  seen 480ms ago",
		"* g-dsm      ok       partial",
		"  tas        —        —",
		"  yellqueue  FAIL     —",
		"1/6 cells exhausted",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestStatusOneShot pins `fleet status` without -watch against the
// same canned state, served as the coordinator serves it: the counts
// come from /v1/metrics, the state, wave and liveness from /v1/status.
func TestStatusOneShot(t *testing.T) {
	st := cannedState()
	mux := http.NewServeMux()
	mux.HandleFunc(fleet.PathStatus, func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(st.Status) })
	mux.HandleFunc(fleet.PathMetrics, func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(st.Metrics) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"status", "-coordinator", srv.URL}, &stdout, &stderr); code != 0 {
		t.Fatalf("status exited %d: %s", code, stderr.String())
	}
	want := "g-dsm: running (wave CC depth=3 frontier=120: 2 pending / 1 leased / 5 done ranges); 10 leases, 1 re-leases, 2 stale reports\n" +
		"waves 4, schedules 10784\n" +
		"worker w0: 6 leases, 6000 schedules, seen 12ms ago\n" +
		"worker w1: 4 leases, 4784 schedules, seen 480ms ago\n"
	if got := stdout.String(); got != want {
		t.Fatalf("status printed\n%s\nwant\n%s", got, want)
	}
}

// TestLoadCoverageKeepsStrongestMark: ok beats partial, FAIL beats ok,
// and unreadable files are skipped.
func TestLoadCoverageKeepsStrongestMark(t *testing.T) {
	dir := t.TempDir()
	writeExplore(t, dir, "a", []obs.ExploreModel{{Model: "CC", Exhausted: false}})
	// Second artifact for the same cell, exhausted this time — stored
	// under a distinct name so both survive in the directory.
	art := &obs.ExploreArtifact{Schema: obs.ExploreSchema, Algorithm: "a",
		Models: []obs.ExploreModel{{Model: "CC", Exhausted: true}}}
	if err := art.WriteFile(filepath.Join(dir, "second.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cov := loadCoverage(dir)
	if got := cov["a"]["CC"]; got != covOK {
		t.Fatalf("a/CC = %q, want %q (strongest mark wins)", got, covOK)
	}
	if len(loadCoverage("")) != 0 {
		t.Fatal("empty dir must yield empty coverage")
	}
}

func TestUsString(t *testing.T) {
	for _, tc := range []struct {
		us   int64
		want string
	}{
		{950, "950µs"},
		{1_500, "1.5ms"},
		{2_500_000, "2.5s"},
	} {
		if got := usString(tc.us); got != tc.want {
			t.Errorf("usString(%d) = %q, want %q", tc.us, got, tc.want)
		}
	}
}

// TestWithPprof: the pprof mux serves /debug/pprof/ while everything
// else still reaches the coordinator API.
func TestWithPprof(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(withPprof(api))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + fleet.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("API not reachable through pprof wrapper: HTTP %d", resp.StatusCode)
	}
}

// TestSmokeSubcommand runs the telemetry CI gate end to end: loopback
// fleet, capacity-artifact validation, and the /v1/metrics probe.
func TestSmokeSubcommand(t *testing.T) {
	dir := t.TempDir()
	capacity := filepath.Join(dir, "CAPACITY_g-dsm.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"smoke", "-alg", "g-dsm", "-n", "2", "-entries", "1",
		"-preemptions", "1", "-workers", "2", "-capacity", capacity}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "smoke ok: ") {
		t.Fatalf("stdout: %s", stdout.String())
	}
	art, err := obs.ReadCapacityArtifact(capacity)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Complete || art.Schedules <= 0 || art.Leases <= 0 {
		t.Fatalf("capacity artifact: %+v", art)
	}
}

// TestSmokeUsage: -capacity is mandatory.
func TestSmokeUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"smoke", "-alg", "g-dsm"}, &stdout, &stderr); code != 2 {
		t.Fatalf("smoke without -capacity exited %d, want 2", code)
	}
}
