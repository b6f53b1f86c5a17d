package experiments

import (
	"fmt"
	"sort"

	"fetchphi/internal/baseline"
	"fetchphi/internal/core"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// entry is one registered algorithm: its builder, and whether the type
// it builds is a harness.AbortableAlgorithm.
type entry struct {
	build     harness.Builder
	abortable bool
}

// of registers a typed constructor. Its abortability is read off the
// type it returns, so finding the abortable subset builds no machine.
func of[A harness.Algorithm](newA func(*memsim.Machine) A) entry {
	var zero A
	_, abortable := any(zero).(harness.AbortableAlgorithm)
	return entry{func(m *memsim.Machine) harness.Algorithm { return newA(m) }, abortable}
}

// registry is every simulated mutual exclusion algorithm in the
// repository by name: the paper's constructions (over a default
// primitive choice), the abortable locks and all baselines. Every
// experiment, command and test finds its builders here.
var registry = map[string]entry{
	"g-cc":               of(func(m *memsim.Machine) *core.GCC { return core.NewGCC(m, phi.FetchAndIncrement{}) }),
	"g-cc/fas":           of(func(m *memsim.Machine) *core.GCC { return core.NewGCC(m, phi.FetchAndStore{}) }),
	"g-cc-specialized":   of(core.NewGCCFetchInc),
	"g-dsm":              of(func(m *memsim.Machine) *core.GDSM { return core.NewGDSM(m, phi.FetchAndIncrement{}) }),
	"g-dsm/fas":          of(func(m *memsim.Machine) *core.GDSM { return core.NewGDSM(m, phi.FetchAndStore{}) }),
	"g-dsm-nowait":       of(func(m *memsim.Machine) *core.GDSM { return core.NewGDSMNoExitWait(m, phi.FetchAndIncrement{}) }),
	"gdsm-abortable/f&i": of(func(m *memsim.Machine) *core.GDSMAbortable { return core.NewGDSMAbortable(m, phi.FetchAndIncrement{}) }),
	"gdsm-abortable/f&s": of(func(m *memsim.Machine) *core.GDSMAbortable { return core.NewGDSMAbortable(m, phi.FetchAndStore{}) }),
	"token-abortable":    of(core.NewTokenAbortable),
	"tree4":              of(func(m *memsim.Machine) *core.Tree { return core.NewTree(m, phi.NewBoundedFetchInc(4)) }),
	"tree8":              of(func(m *memsim.Machine) *core.Tree { return core.NewTree(m, phi.NewBoundedFetchInc(8)) }),
	"t0":                 of(core.NewT0),
	"t":                  of(func(m *memsim.Machine) *core.T { return core.NewT(m, phi.BoundedIncDec{}) }),
	"t/fas":              of(func(m *memsim.Machine) *core.T { return core.NewT(m, phi.FetchAndStore{}) }),
	"tas":                of(baseline.NewTASLock),
	"ticket":             of(baseline.NewTicketLock),
	"t-anderson":         of(baseline.NewAndersonLock),
	"graunke-thakkar":    of(baseline.NewGraunkeThakkarLock),
	"mcs":                of(baseline.NewMCSLock),
	"mcs-swap-only":      of(baseline.NewMCSSwapOnlyLock),
	"clh":                of(baseline.NewCLHLock),
	"yang-anderson-tree": of(baseline.NewYangAndersonTree),
}

// names is the registry's keys, sorted; abortableNames the subset that
// builds a harness.AbortableAlgorithm, in the same order.
var names, abortableNames = sortedNames()

func sortedNames() (all, abortable []string) {
	for name := range registry {
		all = append(all, name)
	}
	sort.Strings(all)
	for _, name := range all {
		if registry[name].abortable {
			abortable = append(abortable, name)
		}
	}
	return all, abortable
}

// AlgorithmNames returns the registry's names, sorted.
func AlgorithmNames() []string { return append([]string(nil), names...) }

// Algorithm looks a builder up by name.
func Algorithm(name string) (harness.Builder, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown algorithm %q (known: %v)", name, names)
	}
	return e.build, nil
}

// builder is Algorithm for an experiment's own cells, where an
// unregistered name is a programming error.
func builder(name string) harness.Builder {
	b, err := Algorithm(name)
	if err != nil {
		panic(err)
	}
	return b
}
