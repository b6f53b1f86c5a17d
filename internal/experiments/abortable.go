package experiments

import (
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// e10Schedule is E10's pinned abort adversary: every process requests
// an abort on each even-numbered passage at entry event 1, with one
// re-request per entry after a short delay. The schedule is a pure
// function of (n, entries), so every cell's abort pressure — roughly
// half of all passages withdraw — is deterministic and identical
// across sweep-worker counts.
func e10Schedule(n, entries int) []memsim.AbortPoint {
	var points []memsim.AbortPoint
	for p := 0; p < n; p++ {
		for pass := 0; pass < 2*entries; pass += 2 {
			points = append(points, memsim.AbortPoint{Proc: p, Passage: pass, Event: 1})
		}
	}
	return points
}

// E10Abortable measures abortable mutual exclusion under the pinned
// abort adversary: total RMRs divided by completed-or-withdrawn
// passages (the amortized metric) must stay O(1) in N on both models,
// and every withdrawal must resolve within the wait-free bound. Its
// algorithms are the registry's abortable subset, in name order.
func E10Abortable(o Opts) harness.Table {
	t := harness.Table{
		ID:      "E10",
		Title:   "Abortable mutual exclusion under the abort-schedule adversary",
		Claim:   "amortized RMR per passage (total RMR ÷ completed-or-aborted passages) stays O(1) as N grows on both models; withdrawals are wait-free",
		Columns: []string{"N", "algorithm", "model", "aborts", "passages", "amortized RMR/passage", "worst abort resolve"},
	}
	var cells []harness.Cell
	for _, n := range o.ns([]int{2, 4, 8, 16, 32, 64}) {
		for _, name := range abortableNames {
			for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
				cells = append(cells, harness.Cell{
					Experiment: "E10", Algorithm: name, Build: builder(name),
					Workload: harness.Workload{
						Model: model, N: n, Entries: o.entries(), CSOps: 1, Seed: o.Seed,
						Aborts:     e10Schedule(n, o.entries()),
						Retries:    1,
						RetryDelay: 2,
					},
				})
			}
		}
	}
	for i, met := range o.sweep(cells) {
		if met.Aborts == 0 {
			o.failCell(cells[i], "abort schedule never fired — the sweep is vacuous")
		}
		if met.MaxAbortResolve > harness.AbortResolveBound {
			o.failCell(cells[i], "withdrawal not wait-free: %d own steps (bound %d)", met.MaxAbortResolve, harness.AbortResolveBound)
		}
		w := cells[i].Workload
		t.AddRow(harness.Itoa(int64(w.N)), cells[i].Algorithm, w.Model.String(),
			harness.Itoa(met.Aborts), harness.Itoa(met.Passages),
			harness.Ftoa(met.AmortizedRMR), harness.Itoa(met.MaxAbortResolve))
	}
	t.Notes = append(t.Notes,
		"abort schedule: every process withdraws on even passages at entry event 1, one re-request per entry",
		"the amortized denominator counts withdrawn passages too — a lock that aborts cheaply but pays for it at release would show here")
	return t
}
