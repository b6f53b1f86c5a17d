package experiments

import (
	"fmt"
	"runtime"

	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
	"fetchphi/internal/stress"
)

func (o Opts) nativeIters() int {
	if o.Quick {
		return 4_000
	}
	return 20_000
}

// E9Native measures wall-clock throughput of the native (real
// goroutine) spin locks of the stress zoo (stress.Cases, the locks
// cmd/lockstress drives) — the one experiment that is not a
// deterministic simulation. Each case runs through the stress harness
// (stress.Run), so ns/op includes the harness's per-acquisition work:
// two clock reads and an atomic ordinal claim inside the critical
// section, which lengthen it, and a clock read and three histogram
// observations outside it. Its cells are recorded with WallClock set so
// the regression gate knows to skip them: ns/op on a shared CI box is
// informative, not a stable invariant. The harness double-checks
// mutual exclusion by counting unprotected increments; a lost update
// panics, naming the lock.
func E9Native(o Opts) harness.Table {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	if workers > 8 {
		workers = 8
	}
	iters := o.nativeIters()
	t := harness.Table{
		ID:      "E9",
		Title:   "Native lock throughput (real goroutines)",
		Claim:   "local-spin queue locks stay competitive with sync.Mutex under contention",
		Columns: []string{"lock", "workers", "total ops", "ns/op"},
	}
	for _, c := range stress.Cases() {
		res, err := stress.Run(c, stress.Config{Workers: workers, Iters: iters})
		if err != nil {
			panic(fmt.Sprintf("experiments: E9: %v", err))
		}
		nsPerOp := float64(res.ElapsedNS) / float64(res.Ops)
		t.AddRow(c.Name, harness.Itoa(int64(workers)), harness.Itoa(res.Ops), harness.Ftoa(nsPerOp))
		if o.Record != nil {
			o.Record(obs.Cell{
				Experiment: "E9",
				Algorithm:  c.Name,
				Model:      "native",
				N:          workers,
				Entries:    int(res.Ops),
				WallClock:  true,
				NsPerOp:    nsPerOp,
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("wall-clock, GOMAXPROCS=%d; excluded from the RMR regression gate", runtime.GOMAXPROCS(0)))
	return t
}
