package obs

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sampleArtifact builds a small but fully populated artifact.
func sampleArtifact() *Artifact {
	mkHist := func(vals ...int64) Histogram {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	mkCell := func(alg, model string, n int, seed int64, worst int64, mean float64, spins int64) Cell {
		return Cell{
			Experiment: "E1", Algorithm: alg, Model: model, N: n, Entries: 4, Seed: seed,
			MeanRMR: mean, WorstRMR: worst, NonLocalSpins: spins, MaxBypass: 3, Steps: 1234,
			Hotspots: []HotVar{{Name: "lock.tail", RMRs: 64}, {Name: "lock.grant[0]", RMRs: 32}},
			Run: RunMetrics{
				Entries: 4 * int64(n), TotalRMRs: int64(mean * 4 * float64(n)),
				PhaseRMRs:   map[string]int64{"entry": 40, "exit": 10},
				RMRPerEntry: mkHist(10, 12, 14, worst),
			},
		}
	}
	return &Artifact{
		Schema:     Schema,
		Experiment: "E1",
		CreatedBy:  "test",
		Commit:     "deadbeef",
		Params:     Params{Quick: true, Seed: 1, Workers: 4},
		Cells: []Cell{
			mkCell("g-cc/f&i", "CC", 8, 1, 17, 12.5, 0),
			mkCell("g-cc/f&s", "CC", 8, 1, 19, 13.0, 0),
			mkCell("g-cc/f&i", "CC", 32, 1, 18, 12.8, 0),
		},
		Tables: []Table{{
			ID: "E1", Title: "t", Columns: []string{"N", "mean"},
			Rows: [][]string{{"8", "12.5"}}, Notes: []string{"note"},
		}},
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ArtifactName("E1"))
	a := sampleArtifact()
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", a, got)
	}
	// Round-tripped artifacts must gate clean against themselves.
	if regs := Compare(a, got, nil); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}

func TestArtifactWriteCreatesDirsAndSorts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifacts", "nested", ArtifactName("E1"))
	a := sampleArtifact()
	// Shuffle the canonical order; WriteFile must restore it.
	a.Cells[0], a.Cells[2] = a.Cells[2], a.Cells[0]
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got.Cells); i++ {
		if got.Cells[i-1].Key() >= got.Cells[i].Key() {
			t.Fatalf("cells not in canonical order: %q ≥ %q", got.Cells[i-1].Key(), got.Cells[i].Key())
		}
	}
}

func TestReadArtifactRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	a := sampleArtifact()
	a.Schema = "something/else"
	// Bypass WriteFile's schema defaulting by writing the raw form.
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("expected schema error, got %v", err)
	}
}

// TestReadArtifactDirMixedSchemas: artifact directories legitimately
// hold bench artifacts next to fetchphi.trace/v1 dumps, a
// fetchphi.claims/v1 verdict file, and non-JSON files. The directory
// reader must load exactly the bench artifacts and skip the rest.
func TestReadArtifactDirMixedSchemas(t *testing.T) {
	dir := t.TempDir()
	e1 := sampleArtifact()
	if err := e1.WriteFile(filepath.Join(dir, ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	e2 := sampleArtifact()
	e2.Experiment = "E2"
	for i := range e2.Cells {
		e2.Cells[i].Experiment = "E2"
	}
	if err := e2.WriteFile(filepath.Join(dir, ArtifactName("E2"))); err != nil {
		t.Fatal(err)
	}
	foreign := map[string]string{
		"TRACE_E1.json": `{"schema": "fetchphi.trace/v1", "spans": []}`,
		"CLAIMS.json":   `{"schema": "fetchphi.claims/v1", "claims": []}`,
		"README.txt":    "not json at all",
	}
	for name, body := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "traces"), 0o755); err != nil {
		t.Fatal(err)
	}

	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatalf("ReadArtifactDir on a mixed dir: %v", err)
	}
	if len(arts) != 2 {
		t.Fatalf("loaded %d artifacts, want 2", len(arts))
	}
	if arts[0].Experiment != "E1" || arts[1].Experiment != "E2" {
		t.Fatalf("artifacts not sorted by experiment: %s, %s", arts[0].Experiment, arts[1].Experiment)
	}
}

// TestReadArtifactDirRejectsTruncatedJSON: unparseable JSON is a
// corrupt artifact, never silently skipped.
func TestReadArtifactDirRejectsTruncatedJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_E1.json"), []byte(`{"schema": "fetchphi.be`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifactDir(dir); err == nil {
		t.Fatal("truncated JSON was silently skipped")
	}
}

// TestGateOverMixedDir: the regression gate consumes directory reads,
// so a baseline directory carrying trace and claims files must gate
// exactly as a bench-only one does — including still catching a real
// regression.
func TestGateOverMixedDir(t *testing.T) {
	dir := t.TempDir()
	base := sampleArtifact()
	if err := base.WriteFile(filepath.Join(dir, ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CLAIMS.json"),
		[]byte(`{"schema": "fetchphi.claims/v1", "claims": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 {
		t.Fatalf("loaded %d artifacts, want 1", len(arts))
	}
	if regs := Compare(arts[0], base, nil); len(regs) != 0 {
		t.Fatalf("clean self-comparison regressed: %v", regs)
	}
	worse := sampleArtifact()
	worse.Cells[0].WorstRMR *= 3
	if regs := Compare(arts[0], worse, nil); len(regs) == 0 {
		t.Fatal("gate over a dir-read baseline missed a 3x worst-RMR regression")
	}
}

func TestCellKeyUniquenessAcrossDims(t *testing.T) {
	a := sampleArtifact()
	seen := map[string]bool{}
	for _, c := range a.Cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %q", c.Key())
		}
		seen[c.Key()] = true
	}
}

// TestReadArtifactDirSchemaNotFirst: a bench artifact whose "schema"
// key is not its first still loads, through the full schema probe.
func TestReadArtifactDirSchemaNotFirst(t *testing.T) {
	dir := t.TempDir()
	body := `{"experiment": "E3", "params": {"quick": true, "seed": 1}, "cells": [], "schema": "` + Schema + `"}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_E3.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Experiment != "E3" || arts[0].Schema != Schema {
		t.Fatalf("loaded %+v, want the one E3 artifact", arts)
	}
}

// TestReadArtifactDirLaterSchemaWins: encoding/json lets the last of
// duplicate (case-folded) keys win, so a file that leads with the bench
// tag but ends with another is skipped, and one that leads with
// another tag but ends with the bench tag loads.
func TestReadArtifactDirLaterSchemaWins(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.json": `{"schema": "` + Schema + `", "experiment": "E1", "Schema": "fetchphi.trace/v1"}`,
		"b.json": `{"schema": "fetchphi.trace/v1", "experiment": "E2", "SCHEMA": "` + Schema + `"}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Experiment != "E2" {
		t.Fatalf("loaded %+v, want only E2", arts)
	}
}

// TestReadArtifactDirRejectsTruncatedForeign: a file that starts with
// another schema's tag but is not valid JSON is an error, not a skip.
func TestReadArtifactDirRejectsTruncatedForeign(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "TRACE_E1.json"), []byte(`{"schema": "fetchphi.trace/v1", "spans": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifactDir(dir); err == nil || !strings.Contains(err.Error(), "TRACE_E1.json") {
		t.Fatalf("truncated foreign file: got %v, want an error naming it", err)
	}
}

// TestReadArtifactDirFirstErrorByName: files are read in parallel, but
// of two bad files the error always names the first in name order.
func TestReadArtifactDirFirstErrorByName(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_E1.json", "BENCH_E2.json", "BENCH_E3.json", "BENCH_E4.json"} {
		a := sampleArtifact()
		a.Experiment = strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json")
		if err := a.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for name, body := range map[string]string{"BENCH_E2x.json": `{"schema": [`, "BENCH_E3x.json": `{"schema"`} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			_, err := ReadArtifactDir(dir)
			if err == nil || !strings.Contains(err.Error(), "BENCH_E2x.json") {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS %d: got %v, want the error of BENCH_E2x.json", procs, err)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestReadArtifactDirParallelMatchesSerial: the artifacts, and their
// order (experiment, then file name), do not depend on how many
// goroutines read them.
func TestReadArtifactDirParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	type id struct{ exp, name string }
	var want []id
	for i := 0; i < 24; i++ {
		a := sampleArtifact()
		a.Experiment = []string{"E2", "E1", "E10"}[i*7%3]
		a.CreatedBy = fmt.Sprintf("%c%02d.json", 'z'-i, i)
		if err := a.WriteFile(filepath.Join(dir, a.CreatedBy)); err != nil {
			t.Fatal(err)
		}
		want = append(want, id{a.Experiment, a.CreatedBy})
	}
	if err := os.WriteFile(filepath.Join(dir, "CLAIMS.json"), []byte(`{"schema": "fetchphi.claims/v1", "claims": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(want, func(a, b id) int {
		if c := strings.Compare(a.exp, b.exp); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	read := func(procs int) []*Artifact {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		arts, err := ReadArtifactDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return arts
	}
	serial, parallel := read(1), read(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("GOMAXPROCS 1 and 4 read different artifacts")
	}
	var got []id
	for _, a := range serial {
		got = append(got, id{a.Experiment, a.CreatedBy})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestSortMatchesKeyComparisons: sorting on precomputed keys yields
// exactly the order of sort.Slice calling Key() in each comparison,
// ties between equal keys included.
func TestSortMatchesKeyComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cells []Cell
	for i := 0; i < 500; i++ {
		cells = append(cells, Cell{
			Experiment: "E" + strconv.Itoa(rng.Intn(3)), Algorithm: []string{"g-cc", "g-dsm", "t"}[rng.Intn(3)],
			Model: []string{"CC", "DSM"}[rng.Intn(2)], N: 1 << rng.Intn(9), Entries: 4, Seed: int64(rng.Intn(3)),
			Steps: int64(i), // tells cells with equal keys apart
		})
	}
	want := slices.Clone(cells)
	sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
	a := &Artifact{Cells: cells}
	a.Sort()
	if !reflect.DeepEqual(a.Cells, want) {
		t.Fatal("Sort order differs from sorting by Key() per comparison")
	}
}
