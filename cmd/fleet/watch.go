package main

// fleet status -watch: the terminal coverage dashboard. Each frame
// polls /v1/status and /v1/metrics, then renders campaign progress,
// worker liveness, re-lease churn, and coverage of the registered
// algorithm×model grid (scanned from the explore-artifact directory).
// Rendering is a pure function of the polled state so the frame format
// is pinned by tests without a live fleet.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"

	"fetchphi/internal/fleet"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// fleetState is one polled dashboard frame's raw data.
type fleetState struct {
	Status  fleet.StatusResponse
	Metrics telemetry.Snapshot
}

// fetchState polls both coordinator endpoints.
func fetchState(client *http.Client, coordinator string) (*fleetState, error) {
	var st fleetState
	if err := getJSON(client, coordinator+fleet.PathStatus, &st.Status); err != nil {
		return nil, err
	}
	if err := getJSON(client, coordinator+fleet.PathMetrics, &st.Metrics); err != nil {
		return nil, err
	}
	return &st, nil
}

// getJSON fetches one JSON document.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Coverage marks, strongest-claim-last: a model cell shows the best
// verdict any artifact in the directory recorded for it, except that a
// failure always surfaces.
const (
	covAbsent  = "—"
	covPartial = "partial"
	covOK      = "ok"
	covFail    = "FAIL"
)

// covRank orders marks so stronger claims overwrite weaker ones.
func covRank(mark string) int {
	switch mark {
	case covFail:
		return 3
	case covOK:
		return 2
	case covPartial:
		return 1
	}
	return 0
}

// loadCoverage scans dir for fetchphi.explore/v2 artifacts and folds
// them into algorithm → model → mark. Unreadable or foreign-schema
// files are skipped, like obs.ReadArtifactDir does for bench
// artifacts.
func loadCoverage(dir string) map[string]map[string]string {
	cov := make(map[string]map[string]string)
	if dir == "" {
		return cov
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	sort.Strings(paths)
	for _, p := range paths {
		art, err := obs.ReadExploreArtifact(p)
		if err != nil {
			continue
		}
		for _, m := range art.Models {
			mark := covPartial
			switch {
			case m.Failure != "":
				mark = covFail
			case m.Exhausted:
				mark = covOK
			}
			row := cov[art.Algorithm]
			if row == nil {
				row = make(map[string]string)
				cov[art.Algorithm] = row
			}
			if covRank(mark) > covRank(row[m.Model]) {
				row[m.Model] = mark
			}
		}
	}
	return cov
}

// renderDashboard writes one dashboard frame: the campaign headline,
// throughput and churn from the metrics snapshot, one liveness row per
// worker, and the algorithm×model coverage grid. algs and models are
// the registered grid (the caller passes experiments.AlgorithmNames()
// and the canonical model order).
func renderDashboard(w io.Writer, st *fleetState, algs, models []string, cov map[string]map[string]string, covDir string) {
	s := &st.Status
	fmt.Fprintf(w, "%s: %s", s.Algorithm, s.State)
	if s.Model != "" {
		fmt.Fprintf(w, " — wave %s depth=%d frontier=%d (%d pending / %d leased / %d done ranges)",
			s.Model, s.Depth, s.Frontier, s.RangesPending, s.RangesLeased, s.RangesDone)
	}
	fmt.Fprintln(w)
	reLease := 0.0
	if s.Leases > 0 {
		reLease = 100 * float64(s.ReLeases) / float64(s.Leases)
	}
	fmt.Fprintf(w, "waves %d  schedules %d (%.0f/s)  leases %d  re-lease %.1f%%  stale %d\n",
		s.Waves, s.Schedules, st.Metrics.PerSec(fleet.MetricSchedules),
		s.Leases, reLease, s.StaleReports)
	if wave := st.Metrics.Histogram(fleet.MetricWaveUS); wave.Count > 0 {
		fmt.Fprintf(w, "wave time p50 %s  p99 %s  (%d waves timed)\n",
			usString(wave.Quantile(0.5)), usString(wave.Quantile(0.99)), wave.Count)
	}
	if s.Failure != "" {
		fmt.Fprintf(w, "failure: %s\n", s.Failure)
	}

	if len(s.Workers) > 0 {
		fmt.Fprintln(w, "workers:")
		for _, ws := range s.Workers {
			fmt.Fprintf(w, "  %-12s %4d leases  %8d schedules (%.0f/s)  seen %dms ago\n",
				ws.Worker, ws.Leases, ws.Schedules,
				st.Metrics.PerSec(fleet.WorkerMetric(ws.Worker, "schedules")), ws.LastSeenMS)
		}
	}

	fmt.Fprintf(w, "coverage (%s):\n", covDir)
	width := len("algorithm")
	for _, a := range algs {
		if len(a) > width {
			width = len(a)
		}
	}
	fmt.Fprintf(w, "  %-*s", width, "algorithm")
	for _, m := range models {
		fmt.Fprintf(w, "  %-7s", m)
	}
	fmt.Fprintln(w)
	for _, a := range algs {
		marker := " "
		if a == s.Algorithm && s.State == "running" {
			marker = "*" // the campaign being watched
		}
		fmt.Fprintf(w, "%s %-*s", marker, width, a)
		for _, m := range models {
			mark := covAbsent
			if row := cov[a]; row != nil && row[m] != "" {
				mark = row[m]
			}
			fmt.Fprintf(w, "  %-7s", mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %s\n", summarizeCoverage(algs, models, cov))
}

// usString formats a microsecond quantity for the dashboard.
func usString(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.1fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// clearScreen is the ANSI home+clear prefix between watch frames.
const clearScreen = "\033[H\033[2J"

// coverageModels is the dashboard's column order.
func coverageModels() []string {
	return []string{"CC", "DSM"}
}

// summarizeCoverage counts covered cells for the one-line footer.
func summarizeCoverage(algs, models []string, cov map[string]map[string]string) string {
	okCells, total := 0, len(algs)*len(models)
	for _, a := range algs {
		for _, m := range models {
			if row := cov[a]; row != nil && row[m] == covOK {
				okCells++
			}
		}
	}
	return fmt.Sprintf("%d/%d cells exhausted", okCells, total)
}
