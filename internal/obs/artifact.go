package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// byte-stable regardless of the sweep engine's completion order. Each
// key is built once, not once per comparison.
func (a *Artifact) Sort() {
	keys := make([]string, len(a.Cells))
	for i, c := range a.Cells {
		keys[i] = c.Key()
	}
	sort.Sort(keyedCells{keys, a.Cells})
}

// keyedCells sorts cells by their precomputed keys, moving both.
type keyedCells struct {
	keys  []string
	cells []Cell
}

func (k keyedCells) Len() int           { return len(k.keys) }
func (k keyedCells) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedCells) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.cells[i], k.cells[j] = k.cells[j], k.cells[i]
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
// artifact must never be silently ignored); of several bad files, the
// error names the first by name. Files are read on up to GOMAXPROCS
// goroutines. Artifacts come back sorted by experiment id, then file
// name.
func ReadArtifactDir(dir string) ([]*Artifact, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	var paths []string // in name order: ReadDir sorts
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	arts := make([]*Artifact, len(paths))
	errs := make([]error, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(paths)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				arts[i], errs[i] = readBenchFile(paths[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	arts = slices.DeleteFunc(arts, func(a *Artifact) bool { return a == nil })
	// Stable, so artifacts of one experiment stay in name order.
	sort.SliceStable(arts, func(i, j int) bool { return arts[i].Experiment < arts[j].Experiment })
	return arts, nil
}

// readBenchFile loads the bench artifact at path, or returns nil and
// no error if the file is JSON of another schema. A file whose first
// key is "schema" with this package's tag is decoded once, straight
// into an Artifact. Any other file, or one that decode rejects, takes
// the full schema probe, so which files load and which error is
// returned do not depend on the shortcut: encoding/json matches keys
// without regard to case and lets the last duplicate win.
func readBenchFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if leadingSchema(data) == Schema {
		a := new(Artifact)
		if json.Unmarshal(data, a) == nil && a.Schema == Schema {
			return a, nil
		}
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	if probe.Schema != Schema {
		return nil, nil
	}
	return decodeJSON(path, data, Schema, benchSchema)
}

// leadingSchema returns the string value of data's "schema" key if
// that is the document's first key, and "" otherwise. It reads only
// the document's first tokens.
func leadingSchema(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return ""
	}
	if t, err := dec.Token(); err != nil || t != "schema" {
		return ""
	}
	t, _ := dec.Token()
	s, _ := t.(string)
	return s
}

// CellIndex maps cell keys to cells for cross-artifact comparison.
func (a *Artifact) CellIndex() map[string]Cell {
	idx := make(map[string]Cell, len(a.Cells))
	for _, c := range a.Cells {
		idx[c.Key()] = c
	}
	return idx
}
