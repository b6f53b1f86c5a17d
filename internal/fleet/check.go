package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fetchphi/internal/harness"
)

// CheckOptions configure the in-process fleet check.
type CheckOptions struct {
	// Workers is the number of fleet workers to run (default 2).
	Workers int
	// Shards is each worker's local wave-shard width (default 1).
	Shards int
	// LeaseSize, LeaseTimeout, CheckpointPath, CapacityPath, CreatedBy,
	// Commit pass through to the coordinator.
	LeaseSize      int
	LeaseTimeout   time.Duration
	CheckpointPath string
	CapacityPath   string
	CreatedBy      string
	Commit         string
}

// Check is the fleet-backed harness.CheckSharded: it stands up a real
// coordinator and Workers real workers connected over loopback HTTP,
// runs the full lease/report protocol, and returns reports in model
// order with Runs, Exhausted, DepthRuns, and FailingSchedule
// bit-identical to the single-machine paths (failure errors are
// message-identical; their concrete type is erased by the wire). It is
// both the production path behind `fleet run` and the equivalence
// test's subject.
func Check(b harness.Builder, cfg Config, opts CheckOptions) ([]harness.ModelReport, error) {
	return CheckWith(checkCoordinator(cfg, opts), b, opts)
}

// checkPoll is how long an idle in-process worker waits before asking
// for a lease again. Check's coordinator sends it as its RetryMS hint
// too, because a worker lets the hint win over its own Poll, and the
// default hint would idle every worker at each wave boundary.
const checkPoll = 2 * time.Millisecond

// checkCoordinator builds the coordinator Check runs its fleet over.
func checkCoordinator(cfg Config, opts CheckOptions) *Coordinator {
	return NewCoordinator(cfg, CoordinatorOptions{
		LeaseSize:      opts.LeaseSize,
		LeaseTimeout:   opts.LeaseTimeout,
		RetryMS:        int(checkPoll / time.Millisecond),
		CheckpointPath: opts.CheckpointPath,
		CapacityPath:   opts.CapacityPath,
		CreatedBy:      opts.CreatedBy,
		Commit:         opts.Commit,
	})
}

// CheckWith runs the in-process fleet over a caller-built coordinator,
// so tests can inject clocks, lease sizes, and fault-y transports
// while reusing the serve-and-spawn plumbing.
func CheckWith(coord *Coordinator, b harness.Builder, opts CheckOptions) ([]harness.ModelReport, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
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
			Poll:        checkPoll,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	reports, err := coord.Wait()
	wg.Wait()
	return reports, err
}
