package memsim_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/experiments"
	"fetchphi/internal/memsim"
)

// TestLabelsGolden pins every variable label of every registered
// algorithm (abortable ones run abort-free), on CC and DSM: three
// processes, two entries each, under NewRandom(1). Labels name the
// hotspots the experiments report and the
// variables in trace events and failure messages, so however variables
// are stored or their names assembled, each must come out
// byte-identical. Regenerate with
// `go test ./internal/memsim -run TestLabelsGolden -update` only after
// a deliberate renaming.
func TestLabelsGolden(t *testing.T) {
	var b strings.Builder
	eachRegistered(t, 3, func(name string, model memsim.Model, m *memsim.Machine) {
		fmt.Fprintf(&b, "# %s %v\n", name, model)
		for _, l := range memsim.VarLabels(m) {
			fmt.Fprintln(&b, l)
		}
	})
	checkGolden(t, "labels_golden.txt", b.String())
}

// TestVarCountsGolden guards what a run costs in shared variables:
// every registered algorithm (abortable ones run abort-free), on CC
// and DSM at N = 16 and 64, two entries each under NewRandom(1).
// It fails if any algorithm allocates more variables than the golden
// records; a count that falls is logged, and
// `go test ./internal/memsim -run TestVarCountsGolden -update` records
// it.
func TestVarCountsGolden(t *testing.T) {
	var b strings.Builder
	got := map[string]int{}
	for _, n := range []int{16, 64} {
		eachRegistered(t, n, func(name string, model memsim.Model, m *memsim.Machine) {
			key := fmt.Sprintf("%s %v N=%d", name, model, n)
			got[key] = m.NumVars()
			fmt.Fprintf(&b, "%s: %d\n", key, got[key])
		})
	}
	path := filepath.Join("testdata", "var_counts_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, count, ok := strings.Cut(sc.Text(), ": ")
		var want int
		if _, err := fmt.Sscan(count, &want); !ok || err != nil {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		switch have, ran := got[key]; {
		case !ran:
			t.Errorf("%s: no longer run", key)
		case have > want:
			t.Errorf("%s: %d variables, more than the %d recorded in %s", key, have, want, path)
		case have < want:
			t.Logf("%s: %d variables, fewer than the %d recorded; -update records it", key, have, want)
		}
		delete(got, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key := range got {
		t.Errorf("%s: not in %s; -update records it", key, path)
	}
}

// eachRegistered runs every registered algorithm, abort-free, in name
// order on CC and DSM with n processes, two entries each, under
// NewRandom(1), and hands each machine to visit after its run.
func eachRegistered(t *testing.T, n int, visit func(name string, model memsim.Model, m *memsim.Machine)) {
	t.Helper()
	const entries = 2
	for _, name := range experiments.AlgorithmNames() {
		build, err := experiments.Algorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			m := memsim.NewMachine(model, n)
			alg := build(m)
			for i := 0; i < n; i++ {
				m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
					for e := 0; e < entries; e++ {
						alg.Acquire(p)
						p.EnterCS()
						p.ExitCS()
						alg.Release(p)
					}
				})
			}
			if err := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(1)}).Err(); err != nil {
				t.Fatalf("%s on %v with N=%d: %v", name, model, n, err)
			}
			visit(name, model, m)
			m.Release()
		}
	}
}
