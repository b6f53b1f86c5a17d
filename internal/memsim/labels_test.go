package memsim_test

import (
	"fmt"
	"strings"
	"testing"

	"fetchphi/internal/experiments"
	"fetchphi/internal/memsim"
)

// TestLabelsGolden pins every variable label of every registered
// algorithm, then of every abortable one run abort-free, on CC and
// DSM: three processes, two entries each, under NewRandom(1). Labels name the hotspots the experiments report and the
// variables in trace events and failure messages, so however variables
// are stored or their names assembled, each must come out
// byte-identical. Regenerate with
// `go test ./internal/memsim -run TestLabelsGolden -update` only after
// a deliberate renaming.
func TestLabelsGolden(t *testing.T) {
	const n, entries = 3, 2
	algs := experiments.Algorithms()
	for name, b := range experiments.AbortableAlgorithms() {
		algs[name] = b
	}
	var b strings.Builder
	for _, name := range append(experiments.AlgorithmNames(), experiments.AbortableAlgorithmNames()...) {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			m := memsim.NewMachine(model, n)
			alg := algs[name](m)
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
				t.Fatalf("%s on %v: %v", name, model, err)
			}
			fmt.Fprintf(&b, "# %s %v\n", name, model)
			for _, l := range memsim.VarLabels(m) {
				fmt.Fprintln(&b, l)
			}
		}
	}
	checkGolden(t, "labels_golden.txt", b.String())
}
