package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Schema identifies the artifact format. Bump on incompatible changes;
// ReadArtifact rejects artifacts from a different schema.
const Schema = "fetchphi.bench/v1"

// ArtifactName returns the canonical file name for an experiment's
// artifact (BENCH_E1.json, ...).
func ArtifactName(experiment string) string {
	return fmt.Sprintf("BENCH_%s.json", experiment)
}

// Artifact is one experiment run's persistent, machine-readable
// record: the parameters, every measured cell (one per (algorithm,
// model, N, seed) workload), and the rendered tables. Artifacts are
// what the regression gate compares across commits.
type Artifact struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// Experiment is the experiment id (E1..E9).
	Experiment string `json:"experiment"`
	// CreatedBy names the tool that wrote the artifact.
	CreatedBy string `json:"created_by,omitempty"`
	// Commit is the repository commit the artifact was produced at,
	// when known.
	Commit string `json:"commit,omitempty"`
	// Params are the sweep parameters.
	Params Params `json:"params"`
	// Cells are the per-workload measurements, in canonical order.
	Cells []Cell `json:"cells"`
	// Tables are the rendered report tables (informational; the gate
	// compares Cells, not Tables).
	Tables []Table `json:"tables,omitempty"`
}

// Params records how the sweep was scaled.
type Params struct {
	// Quick marks a trimmed sweep (small N only).
	Quick bool `json:"quick"`
	// Seed is the scheduler seed family.
	Seed int64 `json:"seed"`
	// Workers is the sweep-engine worker count (0 = serial default).
	Workers int `json:"workers,omitempty"`
}

// Cell is one measured workload: the cell key (experiment, algorithm,
// model, N, entries, seed) plus everything measured about it.
type Cell struct {
	Experiment string `json:"experiment"`
	Algorithm  string `json:"algorithm"`
	Model      string `json:"model"`
	N          int    `json:"n"`
	Entries    int    `json:"entries"`
	Seed       int64  `json:"seed"`

	// WallClock marks time-based cells (native-lock throughput):
	// nondeterministic, excluded from the regression gate.
	WallClock bool `json:"wall_clock,omitempty"`
	// NsPerOp is the wall-clock cost per operation (WallClock cells).
	NsPerOp float64 `json:"ns_per_op,omitempty"`

	// MeanRMR is total RMRs divided by CS entries.
	MeanRMR float64 `json:"mean_rmr"`
	// WorstRMR is the worst per-entry RMR cost any process observed.
	WorstRMR int64 `json:"worst_rmr"`
	// NonLocalSpins counts busy-wait re-checks of remote variables
	// (must stay 0 for local-spin algorithms on DSM).
	NonLocalSpins int64 `json:"non_local_spins"`
	// MaxBypass is the fairness metric (see harness.Metrics).
	MaxBypass int64 `json:"max_bypass"`
	// Steps is the run's total scheduling points (simulation cost).
	Steps int64 `json:"steps"`
	// AbortSchedule describes the cell's pinned abort schedule
	// (abortable cells only; the memsim.FormatAbortSchedule form).
	AbortSchedule string `json:"abort_schedule,omitempty"`
	// Aborts is the number of withdrawn passages (abortable cells).
	Aborts int64 `json:"aborts,omitempty"`
	// Passages is completed + withdrawn passages, the denominator of
	// AmortizedRMR (abortable cells).
	Passages int64 `json:"passages,omitempty"`
	// AmortizedRMR is total RMRs divided by Passages — the honest cost
	// metric once entries may withdraw (abortable cells).
	AmortizedRMR float64 `json:"amortized_rmr,omitempty"`
	// MaxAbortResolve is the worst own-step count an abort request
	// stayed pending — the wait-free-withdrawal figure (abortable
	// cells).
	MaxAbortResolve int64 `json:"max_abort_resolve,omitempty"`
	// Hotspots are the top-k shared variables ranked by the RMR
	// traffic they attracted (the `tracectl hotspots` attribution view,
	// surfaced per cell). Informational: the gate does not compare
	// them, but a diff pinpoints *where* a regressed cell's extra
	// RMRs went.
	Hotspots []HotVar `json:"hotspots,omitempty"`
	// Run holds the distributional metrics.
	Run RunMetrics `json:"run"`
}

// HotVar is one row of a cell's per-variable RMR attribution.
type HotVar struct {
	// Name is the simulated variable's allocation name.
	Name string `json:"name"`
	// RMRs is the remote-memory-reference count it attracted.
	RMRs int64 `json:"rmrs"`
}

// Key identifies a cell across artifacts: two artifacts' cells with
// equal keys measure the same workload and are comparable.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/%s/N=%d/entries=%d/seed=%d",
		c.Experiment, c.Algorithm, c.Model, c.N, c.Entries, c.Seed)
}

// Table is the JSON form of a rendered report table.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Sort orders cells canonically (by key), making artifacts
// byte-stable regardless of the sweep engine's completion order.
func (a *Artifact) Sort() {
	sort.Slice(a.Cells, func(i, j int) bool { return a.Cells[i].Key() < a.Cells[j].Key() })
}

// WriteFile writes the artifact, canonically sorted, through
// WriteJSON: a crashed run never leaves a truncated artifact behind.
func (a *Artifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = Schema
	}
	a.Sort()
	return WriteJSON(path, a)
}

// ReadArtifact loads and validates one artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	return ReadJSON(path, Schema, benchSchema)
}

func benchSchema(a *Artifact) string { return a.Schema }

// ReadArtifactDir loads every fetchphi.bench/v1 artifact in dir.
// Artifact directories legitimately mix schemas — bench artifacts
// next to fetchphi.trace/v1 dumps and a fetchphi.claims/v1 verdict
// file — so files whose schema tag differs are skipped, not errors.
// Files that are not parseable JSON still fail loudly (a truncated
// artifact must never be silently ignored). Artifacts come back
// sorted by experiment id, then file name.
func ReadArtifactDir(dir string) ([]*Artifact, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	var arts []*Artifact
	names := make(map[*Artifact]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return nil, fmt.Errorf("obs: parse %s: %w", path, err)
		}
		if probe.Schema != Schema {
			continue
		}
		a, err := decodeJSON(path, data, Schema, benchSchema)
		if err != nil {
			return nil, err
		}
		arts = append(arts, a)
		names[a] = e.Name()
	}
	sort.Slice(arts, func(i, j int) bool {
		if arts[i].Experiment != arts[j].Experiment {
			return arts[i].Experiment < arts[j].Experiment
		}
		return names[arts[i]] < names[arts[j]]
	})
	return arts, nil
}

// CellIndex maps cell keys to cells for cross-artifact comparison.
func (a *Artifact) CellIndex() map[string]Cell {
	idx := make(map[string]Cell, len(a.Cells))
	for _, c := range a.Cells {
		idx[c.Key()] = c
	}
	return idx
}
