package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode —
// each doubles as a correctness gate (any violation panics inside
// run).
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := e.Build(Opts{Quick: true, Seed: 1})
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: empty table", tbl.ID)
				}
				out := tbl.String()
				if !strings.Contains(out, tbl.ID) {
					t.Errorf("%s: render missing id:\n%s", tbl.ID, out)
				}
				t.Logf("\n%s", out)
			}
		})
	}
}

// TestE1FlatShape spot-checks the headline claim end to end: E1's
// worst-RMR column must not grow across its N sweep.
func TestE1FlatShape(t *testing.T) {
	tbl := E1GCC(Opts{Quick: true, Seed: 3})
	perPrim := map[string][]string{}
	for _, row := range tbl.Rows {
		perPrim[row[1]] = append(perPrim[row[1]], row[3])
	}
	for prim, worsts := range perPrim {
		first, last := atoi(t, worsts[0]), atoi(t, worsts[len(worsts)-1])
		if last > 2*first+4 {
			t.Errorf("%s: worst RMR grew %s → %s across the sweep", prim, worsts[0], worsts[len(worsts)-1])
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	var v int
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("non-numeric cell %q", s)
		}
		v = v*10 + int(c-'0')
	}
	return v
}

// TestE5Deterministic checks that E5's per-primitive fan-out never
// changes the table: the rows must be identical for every worker
// count, and the seed-1 quick rows — the evidence the rank-examples
// claim reads — are pinned to their recorded values.
func TestE5Deterministic(t *testing.T) {
	want := [][]string{
		{"fetch-and-increment", "∞", "≥48", "2", "no", "—"},
		{"12-bounded-fetch-and-increment", "12", "12", "2", "no", "—"},
		{"fetch-and-store", "∞", "≥48", "2", "yes", "verified"},
		{"fetch-and-add", "∞", "≥48", "2", "yes", "verified"},
		{"bounded-inc-dec-0..2", "3", "3", "2", "yes", "verified"},
		{"test-and-set", "2", "2", "2", "no", "—"},
		{"compare-and-swap", "2", "2", "∞", "no", "—"},
		{"double-compare-and-swap", "3", "3", "∞", "yes", "verified"},
		{"set-and-write", "∞", "≥48", "2", "yes", "verified"},
		{"fetch-and-or", "3", "3", "2", "no", "—"},
		{"fetch-and-xor", "4", "4", "2", "no", "—"},
		{"fetch-and-max", "2", "2", "2", "no", "—"},
	}
	for _, workers := range []int{1, 2, 8} {
		got := E5Ranks(Opts{Quick: true, Seed: 1, Workers: workers}).Rows
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: E5 rows\n got %q\nwant %q", workers, got, want)
		}
	}
}

// brokenLock grants at once without excluding anyone.
type brokenLock struct{}

func (brokenLock) Name() string           { return "broken" }
func (brokenLock) Acquire(p *memsim.Proc) {}
func (brokenLock) Release(p *memsim.Proc) {}

// TestSweepPanicNamesCell: a cell that fails its correctness check
// panics with the cell's artifact key and the cmd/report command that
// reproduces it.
func TestSweepPanicNamesCell(t *testing.T) {
	cell := harness.Cell{
		Experiment: "E1", Algorithm: "broken",
		Build:    func(*memsim.Machine) harness.Algorithm { return brokenLock{} },
		Workload: harness.Workload{Model: memsim.CC, N: 3, Entries: 4, CSOps: 1, Seed: 2},
	}
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Opts{Quick: true, Seed: 2, Workers: 1}.sweep([]harness.Cell{cell})
	}()
	for _, want := range []string{
		"experiments: E1/broken/CC/N=3/entries=4/seed=2: ",
		"(reproduce: go run ./cmd/report -quick -experiments E1 -seed 2)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("sweep panic %q does not contain %q", msg, want)
		}
	}
}
