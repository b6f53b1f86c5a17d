package obs

// The stress artifact (fetchphi.stress/v1) is the native-load record:
// one row per (lock, worker count) run of the internal/stress harness,
// carrying the full latency distributions (exact-until-overflow
// reservoirs), fairness metrics, and the windowed throughput timeline.
// It stands beside the bench (RMR) and capacity (fleet throughput)
// artifacts as the production-load answer for every lock in the zoo,
// and CompareStress is its regression gate: throughput and acquire-p99
// latency, with wall-clock-sized tolerances.

import (
	"fmt"
	"sort"
)

// StressSchema identifies the native-stress artifact format.
const StressSchema = "fetchphi.stress/v1"

// StressP99SlackNS is the absolute slack added to the p99 latency
// bound: sub-slack tails are scheduler noise on a shared machine, not
// lock behavior, so the gate only fires when a tail both grows past
// the ratio and clears this floor.
const StressP99SlackNS = 250_000

// StressArtifact is one harness invocation's record.
type StressArtifact struct {
	// Schema is always the StressSchema constant.
	Schema string `json:"schema"`
	// CreatedBy names the tool that wrote the artifact.
	CreatedBy string `json:"created_by,omitempty"`
	// Commit is the repository commit, when known.
	Commit string `json:"commit,omitempty"`
	// GOMAXPROCS records the host parallelism the numbers were measured
	// under — wall-clock artifacts are only comparable on like hosts.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Iters is acquisitions per worker; CSWork the extra shared work
	// per critical section; Rate the open-loop arrival rate in
	// acquisitions/sec (0 = closed loop).
	Iters  int     `json:"iters"`
	CSWork int     `json:"cswork"`
	Rate   float64 `json:"rate,omitempty"`
	// Locks holds one row per (lock, workers) run.
	Locks []StressLock `json:"locks"`
}

// StressLock is one lock's stress row at one worker count.
type StressLock struct {
	// Lock is the zoo case name; Workers the concurrent goroutines it
	// was driven with.
	Lock    string `json:"lock"`
	Workers int    `json:"workers"`
	// WindowOps is the acquisitions per fairness/throughput window.
	WindowOps int `json:"window_ops"`
	// Ops is total acquisitions; ElapsedMS the run's elapsed time per
	// the run clock; OpsPerSec the throughput headline.
	Ops       int64   `json:"ops"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// AcquireP50NS/P99NS/P999NS are the acquisition-latency quantiles
	// in nanoseconds (exact while the reservoir holds every sample,
	// bucket upper bounds beyond).
	AcquireP50NS  int64 `json:"acquire_p50_ns"`
	AcquireP99NS  int64 `json:"acquire_p99_ns"`
	AcquireP999NS int64 `json:"acquire_p999_ns"`
	// JainIndex is Jain's fairness index over per-worker totals;
	// MinWindowJain the minimum over complete acquisition windows
	// (fairness drift — low means some phase starved some workers).
	JainIndex     float64 `json:"jain_index"`
	MinWindowJain float64 `json:"min_window_jain"`
	// AcquireNS, HandoffNS, HoldNS are the full latency distributions.
	AcquireNS Histogram `json:"acquire_ns"`
	HandoffNS Histogram `json:"handoff_ns"`
	HoldNS    Histogram `json:"hold_ns"`
	// WindowRates is acquisitions/sec per window, in window order.
	WindowRates []float64 `json:"window_rates,omitempty"`
	// PerWorkerOps is each worker's acquisition count.
	PerWorkerOps []int64 `json:"per_worker_ops,omitempty"`
}

// stressKey indexes rows by lock and worker count.
func stressKey(l StressLock) string { return fmt.Sprintf("%s@%d", l.Lock, l.Workers) }

// Normalize sorts the rows (lock name, then worker count) so equal
// runs produce byte-equal artifacts regardless of sweep order.
func (a *StressArtifact) Normalize() {
	sort.Slice(a.Locks, func(i, j int) bool {
		if a.Locks[i].Lock != a.Locks[j].Lock {
			return a.Locks[i].Lock < a.Locks[j].Lock
		}
		return a.Locks[i].Workers < a.Locks[j].Workers
	})
}

// WriteFile writes the artifact, normalized, through WriteJSON.
func (a *StressArtifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = StressSchema
	}
	a.Normalize()
	return WriteJSON(path, a)
}

// ReadStressArtifact loads and validates one stress artifact file.
func ReadStressArtifact(path string) (*StressArtifact, error) {
	return ReadJSON(path, StressSchema, func(a *StressArtifact) string { return a.Schema })
}

// CompareStress gates current against baseline, returning one line per
// regression (empty means the gate passes). maxDegrade is the
// tolerated fractional degradation (e.g. 0.5 tolerates a halved
// throughput or a 1.5× p99 — stress numbers are wall-clock data, so
// gates must be loose). Rows are matched by (lock, workers); per
// baseline row the regressions are:
//
//   - missing: the (lock, workers) row disappeared from current;
//   - throughput: OpsPerSec dropping by more than maxDegrade relative
//     to the baseline (both must be nonzero to compare);
//   - p99 latency: AcquireP99NS growing past baseline·(1+maxDegrade)
//     plus StressP99SlackNS of absolute slack.
//
// Rows only in current (new coverage) and improvements pass silently.
func CompareStress(baseline, current *StressArtifact, maxDegrade float64) []string {
	curIdx := make(map[string]StressLock, len(current.Locks))
	for _, l := range current.Locks {
		curIdx[stressKey(l)] = l
	}
	var regressions []string
	for _, base := range baseline.Locks {
		cur, ok := curIdx[stressKey(base)]
		if !ok {
			regressions = append(regressions, fmt.Sprintf(
				"missing lock: %s at %d workers present in baseline but absent from current run",
				base.Lock, base.Workers))
			continue
		}
		if base.OpsPerSec > 0 && cur.OpsPerSec > 0 &&
			cur.OpsPerSec < base.OpsPerSec*(1-maxDegrade) {
			regressions = append(regressions, fmt.Sprintf(
				"throughput regression: %s at %d workers runs %.0f ops/sec, baseline %.0f (tolerance %.0f%%)",
				cur.Lock, cur.Workers, cur.OpsPerSec, base.OpsPerSec, maxDegrade*100))
		}
		if base.AcquireP99NS > 0 {
			limit := float64(base.AcquireP99NS)*(1+maxDegrade) + StressP99SlackNS
			if float64(cur.AcquireP99NS) > limit {
				regressions = append(regressions, fmt.Sprintf(
					"p99 latency regression: %s at %d workers acquire p99 %dns, baseline %dns (limit %.0fns)",
					cur.Lock, cur.Workers, cur.AcquireP99NS, base.AcquireP99NS, limit))
			}
		}
	}
	return regressions
}
