package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// expectedJSON is the correctness reference every pass is checked
// against. Regenerate it with `perf expected > expected.json` only after
// a deliberate change to simulated results.
//
//go:embed expected.json
var expectedJSON []byte

// expected is the decoded expected.json.
type expected struct {
	// PaperSweep is the cell count and RMR digest of the quick sweep of
	// seed family paperSweepSeed.
	PaperSweep struct {
		Cells  int    `json:"cells"`
		Digest string `json:"digest"`
	} `json:"paper_sweep"`
	// BigN is the big-n digest at one seed; other seeds check the
	// invariants only.
	BigN family `json:"big_n"`
	// Explore holds the per-model exhaustive-check counts of the
	// explore workloads, in model order.
	Explore []modelExpect `json:"explore"`
}

type family struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

type modelExpect struct {
	Model     string `json:"model"`
	Runs      int    `json:"runs"`
	DepthRuns []int  `json:"depth_runs"`
	// Steps is the simulated step total over every explored schedule.
	Steps int64 `json:"steps"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// runExpected regenerates expected.json on stdout.
func runExpected(workDir string, stdout, stderr io.Writer) int {
	// With no digest and no cell count, the sweep checks only the
	// experiments and the claims.
	var e expected
	w, err := preparePaperSweep(&e, workDir).pass(nil)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	e.PaperSweep.Cells = int(w.runs)
	e.PaperSweep.Digest = w.digest

	b, err := prepareBigN(1, &e, "")
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	w, err = b.pass(nil)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	e.BigN = family{Seed: 1, Digest: w.digest}

	alg, err := experiments.Algorithm(exploreAlg)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		ex := harness.CheckExplorer(alg, model, exploreN, exploreEntries, exploreOptions())
		var steps atomic.Int64
		ex.Check = func(r memsim.Result) error { steps.Add(r.Steps); return nil }
		res := ex.Run()
		if res.Err != nil || !res.Exhausted {
			fmt.Fprintf(stderr, "perf: explore %v: exhausted=%v err=%v\n", model, res.Exhausted, res.Err)
			return 1
		}
		e.Explore = append(e.Explore, modelExpect{Model: model.String(), Runs: res.Runs, DepthRuns: res.DepthRuns, Steps: steps.Load()})
	}

	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
