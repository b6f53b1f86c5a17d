package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"fetchphi/internal/harness"
)

// CheckOptions configure the in-process fleet check.
type CheckOptions struct {
	// Workers is the number of fleet workers to run (default 2).
	Workers int
	// Shards is each worker's local wave-shard width, passed to every
	// Worker as it is: 1 runs a lease sequentially, 0 on GOMAXPROCS
	// shards. Results are identical at every width.
	Shards int
}

// Check is the fleet-backed harness.CheckSharded: it stands up a real
// coordinator and Workers real workers connected over loopback HTTP,
// runs the full lease/report protocol, and returns reports in model
// order with Runs, Exhausted, DepthRuns, and FailingSchedule
// bit-identical to the single-machine paths (failure errors are
// message-identical; their concrete type is erased by the wire). It is
// the equivalence tests' subject; `fleet run` and `fleet smoke`, which
// set lease sizes and artifact paths, build their own coordinator and
// call CheckWith.
func Check(b harness.Builder, cfg Config, opts CheckOptions) ([]harness.ModelReport, error) {
	return CheckWith(NewCoordinator(cfg, CoordinatorOptions{}), b, opts)
}

// CheckWith runs the in-process fleet over a caller-built coordinator,
// so tests can inject clocks, lease sizes, and fault-y transports
// while reusing the serve-and-spawn plumbing. A worker that fails (a
// replay divergence from a nondeterministic Build, say) stops the
// campaign, and CheckWith returns that worker's error.
func CheckWith(coord *Coordinator, b harness.Builder, opts CheckOptions) ([]harness.ModelReport, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: loopback listener: %w", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	go coord.Run()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		w := &Worker{
			ID:          fmt.Sprintf("w%d", i),
			Coordinator: "http://" + ln.Addr().String(),
			Resolve:     func(string) (harness.Builder, error) { return b, nil },
			Shards:      opts.Shards,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				coord.stop(fmt.Errorf("fleet: worker %s: %w", w.ID, err))
			}
		}()
	}
	reports, err := coord.Wait()
	wg.Wait()
	return reports, err
}
