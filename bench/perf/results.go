package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// resultsSchema tags the per-run results files -out writes.
const resultsSchema = "fetchphi.perfbench/v1"

// resultsFile is one run's machine-readable record: every pass, the
// set-up probes, and the summary metrics with their units.
type resultsFile struct {
	Schema     string                 `json:"schema"`
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Seconds    int                    `json:"seconds"`
	Commit     string                 `json:"commit,omitempty"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	SetupS     []float64              `json:"setup_s"`
	MaxRSSMB   float64                `json:"max_rss_mb"`
	Passes     []passRecord           `json:"passes"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// writeResults writes the run's results into dir as
// <workload>-s<seed>[-trace].json, adding a -2, -3, ... suffix rather
// than overwriting an earlier run.
func writeResults(dir, workload string, cfg runConfig, seconds int, o *outcome, res result) (string, error) {
	rf := resultsFile{
		Schema: resultsSchema, Workload: workload, Seed: cfg.seed, Traced: cfg.traced,
		Seconds: seconds, Commit: gitCommit(), GOMAXPROCS: o.procs,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		SetupS: o.setup, MaxRSSMB: o.maxRSSMB, Passes: o.passes, Metrics: res.Metrics,
	}
	data, err := json.MarshalIndent(&rf, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("%s-s%d", workload, cfg.seed)
	if cfg.traced {
		base += "-trace"
	}
	for i := 1; ; i++ {
		path := filepath.Join(dir, base+".json")
		if i > 1 {
			path = filepath.Join(dir, fmt.Sprintf("%s-%d.json", base, i))
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, werr := f.Write(append(data, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return path, werr
	}
}

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSide reads every untraced results file in dir and returns, per
// workload, each e2e metric's values (one per run).
func loadSide(dir string) (map[string]map[string][]float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	side := make(map[string]map[string][]float64)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if rf.Schema != resultsSchema || rf.Traced {
			continue
		}
		if !rf.Correct {
			return nil, fmt.Errorf("%s: run was incorrect", e.Name())
		}
		if side[rf.Workload] == nil {
			side[rf.Workload] = make(map[string][]float64)
		}
		for name, v := range rf.Metrics {
			side[rf.Workload][name] = append(side[rf.Workload][name], v.Value)
		}
	}
	if len(side) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", dir)
	}
	return side, nil
}

// runCompare prints, for every workload and end-to-end metric, each
// side's median and quartiles over its runs, and flags a median that
// moved by more than the metric's BENCHMARK.json bound in either
// direction. It exits 1 when anything is flagged.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perf compare", flag.ContinueOnError)
	fset.SetOutput(stderr)
	specPath := fset.String("spec", "BENCHMARK.json", "benchmark description holding the metric bounds")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(stderr, "perf: usage: perf compare [-spec BENCHMARK.json] DIR_A DIR_B")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintf(stderr, "perf: %s: %v\n", *specPath, err)
		return 2
	}
	a, err := loadSide(fset.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	b, err := loadSide(fset.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	var names []string
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	flagged := 0
	fmt.Fprintf(stdout, "%-14s %-17s %-28s %-28s %8s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change")
	for _, w := range names {
		if b[w] == nil {
			fmt.Fprintf(stdout, "%-14s missing from %s\n", w, fset.Arg(1))
			flagged++
			continue
		}
		for _, m := range sp.EndToEnd {
			av, bv := a[w][m.Name], b[w][m.Name]
			am, bm := median(av), median(bv)
			change := ratio(bm-am, am)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			mark := ""
			switch {
			case len(av) == 0 || len(bv) == 0:
				mark = "MISSING"
			case worse > m.Bound:
				mark = fmt.Sprintf("WORSE beyond %.0f%%", m.Bound*100)
			case -worse > m.Bound:
				mark = fmt.Sprintf("BETTER beyond %.0f%%", m.Bound*100)
			}
			if mark != "" {
				flagged++
			}
			fmt.Fprintf(stdout, "%-14s %-17s %-28s %-28s %+7.2f%% %s\n", w, m.Name,
				sideSummary(av), sideSummary(bv), change*100, mark)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "%d difference(s) beyond the bound\n", flagged)
		return 1
	}
	fmt.Fprintln(stdout, "every median within its bound")
	return 0
}

func sideSummary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), q1, q3, len(xs))
}
