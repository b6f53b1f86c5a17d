package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

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
// deterministic simulation. Its cells are recorded with WallClock set
// so the regression gate knows to skip them: ns/op on a shared CI box
// is informative, not a stable invariant. Every case still
// double-checks mutual exclusion by counting unprotected increments,
// and panics on lost updates.
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
		cs := c.Make(workers)
		var counter int
		body := func() { counter++ }
		var wg sync.WaitGroup
		//fetchphilint:ignore determinism E9 is the one wall-clock experiment; its cells are WallClock and gate-exempt
		start := time.Now()
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					cs(w, body)
				}
			}()
		}
		wg.Wait()
		//fetchphilint:ignore determinism E9 is the one wall-clock experiment; its cells are WallClock and gate-exempt
		elapsed := time.Since(start)
		total := workers * iters
		if counter != total {
			panic(fmt.Sprintf("experiments: E9 %s lost updates: %d != %d", c.Name, counter, total))
		}
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(total)
		t.AddRow(c.Name, harness.Itoa(int64(workers)), harness.Itoa(int64(total)),
			harness.Ftoa(nsPerOp))
		if o.Record != nil {
			o.Record(obs.Cell{
				Experiment: "E9",
				Algorithm:  c.Name,
				Model:      "native",
				N:          workers,
				Entries:    total,
				WallClock:  true,
				NsPerOp:    nsPerOp,
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("wall-clock, GOMAXPROCS=%d; excluded from the RMR regression gate", runtime.GOMAXPROCS(0)))
	return t
}
