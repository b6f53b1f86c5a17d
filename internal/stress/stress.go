// Package stress is the instrumented native-load harness behind
// cmd/lockstress: it drives any lock in the internal/nativelock zoo
// with real goroutines and measures what a single throughput number
// hides — per-acquisition latency (exact-until-overflow obs.Histogram
// reservoirs, so p50/p99/p999 are exact on short runs), lock handoff
// time, per-worker acquisition counts with a fairness-drift metric
// (Jain's index over sliding windows of the global acquisition order),
// and a windowed throughput timeline.
//
// Determinism contract: the harness itself never reads the wall clock.
// Every instant flows through a per-run internal/telemetry registry
// whose clock is injectable, and the closed-loop instrumentation reads
// that clock a counted number of times — once at registry
// construction, once for the tracker's start instant, three times per
// acquisition (request, acquire, release), and once at finish. Under a
// fake step clock a run's elapsed time, metric names, and sample
// counts are therefore exact functions of the configuration, which is
// what the deterministic-shape tests pin. Goroutine interleaving still
// decides which worker observes which instant — real contention is the
// point — so sample values are only deterministic under a fake clock,
// never their per-worker attribution.
//
// Load shapes: with Rate == 0 each worker issues its next acquisition
// immediately (closed loop, measuring peak throughput); with Rate > 0
// acquisition j of the global arrival sequence is scheduled at
// start + j/Rate and latency is measured from the *scheduled* arrival,
// not the moment the worker got around to asking — the
// coordinated-omission-free convention, so a lock that falls behind
// the offered load shows the backlog in its latency tail.
package stress

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// Per-worker metric names in the run's telemetry registry. Latency
// histograms are sharded by worker so the hot path never crosses a
// worker boundary (no shared mutex to queue on); Snapshot merges the
// shards in worker order, keeping results reproducible.

// MetricAcquire names worker w's acquisition-latency histogram
// (nanoseconds from request — or scheduled arrival — to lock held).
func MetricAcquire(w int) string { return fmt.Sprintf("stress.w%d.acquire_ns", w) }

// MetricHandoff names worker w's handoff-latency histogram
// (nanoseconds from the previous holder's release to this acquisition).
func MetricHandoff(w int) string { return fmt.Sprintf("stress.w%d.handoff_ns", w) }

// MetricHold names worker w's critical-section hold-time histogram.
func MetricHold(w int) string { return fmt.Sprintf("stress.w%d.hold_ns", w) }

// Config shapes one stress run.
type Config struct {
	// Workers is the number of concurrent goroutines; each presents its
	// index as the lock identity.
	Workers int
	// Iters is the number of acquisitions per worker.
	Iters int
	// CSWork is extra shared-memory work per critical section.
	CSWork int
	// Rate is the open-loop total arrival rate in acquisitions/sec
	// across all workers; 0 selects the closed loop.
	Rate float64
	// WindowOps is the number of acquisitions per fairness/throughput
	// window; 0 selects total/16, clamped to at least 2·Workers so a
	// window can in principle contain every worker.
	WindowOps int
	// Now is the injectable clock (nil = wall clock, via telemetry's
	// single annotated wall-clock site).
	Now func() time.Time
	// OnTracker, when set, is called once with the run's live tracker
	// before any worker starts — the hook the -watch dashboard uses to
	// snapshot a run in flight.
	OnTracker func(*Tracker)
}

// total returns the run's total acquisition count.
func (c Config) total() int64 { return int64(c.Workers) * int64(c.Iters) }

// windowOps resolves the configured or default window size.
func (c Config) windowOps() int64 {
	if c.WindowOps > 0 {
		return int64(c.WindowOps)
	}
	w := c.total() / 16
	if min := int64(2 * c.Workers); w < min {
		w = min
	}
	if w < 1 {
		w = 1
	}
	return w
}

// paddedCount is a per-worker counter padded against false sharing.
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// Tracker is the live state of one run: per-worker latency shards in
// the run's telemetry registry, per-worker and per-window acquisition
// counts, and window timing stamps. All methods are goroutine-safe;
// Snapshot may be called while the run is in flight (the -watch
// dashboard does) or after it finished (Run's result does).
type Tracker struct {
	reg       *telemetry.Registry
	workers   int
	total     int64
	windowOps int64

	start     time.Time
	ordSeq    atomic.Int64 // ordinal dispenser, claimed inside the critical section
	seq       atomic.Int64 // acquisitions fully recorded
	perWorker []paddedCount
	acquire   []*telemetry.Histogram
	handoff   []*telemetry.Histogram
	hold      []*telemetry.Histogram

	// winCounts[k·workers+w] counts worker w's acquisitions whose
	// global ordinal fell in window k; winStamps[k] is elapsed ns + 1
	// of the first acquisition observed in window k (+1 so a fake
	// clock starting at zero still stamps), with the final slot the
	// run-end stamp.
	winCounts []atomic.Int64
	winStamps []atomic.Int64

	doneNS atomic.Int64 // elapsed ns at finish + 1; 0 while running
}

// newTracker builds the run's tracker and pre-creates every metric so
// the hot path never takes the registry map lock.
func newTracker(reg *telemetry.Registry, cfg Config) *Tracker {
	wo := cfg.windowOps()
	numWindows := int((cfg.total() + wo - 1) / wo)
	t := &Tracker{
		reg:       reg,
		workers:   cfg.Workers,
		total:     cfg.total(),
		windowOps: wo,
		start:     reg.Now(),
		perWorker: make([]paddedCount, cfg.Workers),
		acquire:   make([]*telemetry.Histogram, cfg.Workers),
		handoff:   make([]*telemetry.Histogram, cfg.Workers),
		hold:      make([]*telemetry.Histogram, cfg.Workers),
		winCounts: make([]atomic.Int64, numWindows*cfg.Workers),
		winStamps: make([]atomic.Int64, numWindows+1),
	}
	for w := 0; w < cfg.Workers; w++ {
		t.acquire[w] = reg.Histogram(MetricAcquire(w))
		t.handoff[w] = reg.Histogram(MetricHandoff(w))
		t.hold[w] = reg.Histogram(MetricHold(w))
	}
	return t
}

// Registry returns the run's telemetry registry.
func (t *Tracker) Registry() *telemetry.Registry { return t.reg }

// Ops returns the acquisitions completed so far.
func (t *Tracker) Ops() int64 { return t.seq.Load() }

// Total returns the acquisitions the run will perform.
func (t *Tracker) Total() int64 { return t.total }

// record folds one finished acquisition into the tracker. It runs
// after the lock is released, so the observation cost never extends
// the critical section. ord is the acquisition's global ordinal (its
// position in critical-section order), acqElapsedNS the elapsed time
// at acquisition, lastRel the predecessor's release stamp (0 = none).
func (t *Tracker) record(w int, ord, acquireNS, acqElapsedNS, lastRel, holdNS int64) {
	t.seq.Add(1) // before the latencies: Snapshot relies on it
	t.perWorker[w].v.Add(1)
	t.acquire[w].Observe(acquireNS)
	if lastRel != 0 {
		t.handoff[w].Observe(acqElapsedNS + 1 - lastRel)
	}
	t.hold[w].Observe(holdNS)
	win := ord / t.windowOps
	// A broken lock can admit the body more than once per acquisition
	// and overrun the planned ordinal range; clamp so the run survives
	// to the lost-update check instead of panicking.
	if max := int64(len(t.winStamps)) - 2; win > max {
		win = max
	}
	t.winCounts[win*int64(t.workers)+int64(w)].Add(1)
	t.winStamps[win].CompareAndSwap(0, acqElapsedNS+1)
}

// finish stamps the run's end.
func (t *Tracker) finish(end time.Time) {
	el := end.Sub(t.start).Nanoseconds()
	t.doneNS.Store(el + 1)
	t.winStamps[len(t.winStamps)-1].CompareAndSwap(0, el+1)
}

// Progress is a point-in-time view of a run: the merged latency
// distributions, per-worker counts, fairness, and the windowed
// throughput timeline. A finished run's Progress is its final result.
type Progress struct {
	// Ops is the acquisitions completed; ElapsedNS the elapsed time per
	// the run clock.
	Ops       int64
	ElapsedNS int64
	// AcquireNS, HandoffNS, HoldNS are the merged per-worker latency
	// distributions (nanoseconds).
	AcquireNS obs.Histogram
	HandoffNS obs.Histogram
	HoldNS    obs.Histogram
	// PerWorkerOps is each worker's acquisition count.
	PerWorkerOps []int64
	// JainIndex is Jain's fairness index over PerWorkerOps: 1.0 is
	// perfectly even, 1/Workers is one worker hogging everything.
	JainIndex float64
	// MinWindowJain is the minimum Jain's index over complete
	// acquisition windows — the fairness-drift headline. A lock can
	// look fair on totals while starving different workers in
	// different phases; the windowed minimum exposes that.
	MinWindowJain float64
	// WindowRates is acquisitions/sec per window, in window order —
	// the throughput timeline the dashboard sparkline renders.
	WindowRates []float64
}

// OpsPerSec returns the overall throughput.
func (p Progress) OpsPerSec() float64 {
	if p.ElapsedNS <= 0 {
		return 0
	}
	return float64(p.Ops) * 1e9 / float64(p.ElapsedNS)
}

// Snapshot captures the run's current Progress. After finish it reads
// no clock (the end stamp is fixed); mid-run it reads the clock once
// for the elapsed time.
//
// A live snapshot never counts more latencies than acquisitions:
// AcquireNS.Count ≤ Ops. record bumps the acquisition count before it
// observes the acquire latency, so Snapshot merges the histograms first
// and reads Ops after them; every latency it merged is then already
// counted in Ops.
func (t *Tracker) Snapshot() Progress {
	var el int64
	if d := t.doneNS.Load(); d > 0 {
		el = d - 1
	} else {
		el = t.reg.Now().Sub(t.start).Nanoseconds()
	}
	p := Progress{ElapsedNS: el}
	for w := 0; w < t.workers; w++ {
		a := t.acquire[w].Snapshot()
		p.AcquireNS.Merge(&a)
		h := t.handoff[w].Snapshot()
		p.HandoffNS.Merge(&h)
		o := t.hold[w].Snapshot()
		p.HoldNS.Merge(&o)
		p.PerWorkerOps = append(p.PerWorkerOps, t.perWorker[w].v.Load())
	}
	p.Ops = t.seq.Load()
	p.JainIndex = jain(p.PerWorkerOps)
	p.MinWindowJain, p.WindowRates = t.windows(el)
	return p
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over per-worker
// counts; 0 when nothing was counted.
func jain(xs []int64) float64 {
	var n, s, s2 float64
	for _, x := range xs {
		f := float64(x)
		n++
		s += f
		s2 += f * f
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (n * s2)
}

// windows folds the per-window state into the fairness-drift minimum
// and the throughput timeline. Only windows that completed (hold
// exactly windowOps acquisitions) count for fairness — a partial tail
// window would read as artificially unfair; if no window completed the
// drift falls back to the overall index. elapsedNS bounds the last
// window of a run still in flight.
func (t *Tracker) windows(elapsedNS int64) (minJain float64, rates []float64) {
	numWindows := len(t.winStamps) - 1
	counts := make([]int64, t.workers)
	minJain = -1
	for k := 0; k < numWindows; k++ {
		var sum int64
		for w := 0; w < t.workers; w++ {
			counts[w] = t.winCounts[int64(k)*int64(t.workers)+int64(w)].Load()
			sum += counts[w]
		}
		if sum == 0 {
			continue // window not reached yet
		}
		start := t.winStamps[k].Load()
		end := int64(0)
		for j := k + 1; j < len(t.winStamps); j++ {
			if s := t.winStamps[j].Load(); s != 0 {
				end = s
				break
			}
		}
		if end == 0 {
			end = elapsedNS + 1 // window still filling: bound by now
		}
		rate := 0.0
		if start != 0 && end > start {
			rate = float64(sum) * 1e9 / float64(end-start)
		}
		rates = append(rates, rate)
		if sum == t.windowOps { // complete window
			if j := jain(counts); minJain < 0 || j < minJain {
				minJain = j
			}
		}
	}
	if minJain < 0 {
		minJain = jain(t.perWorkerSnapshot())
	}
	return minJain, rates
}

// perWorkerSnapshot copies the per-worker totals.
func (t *Tracker) perWorkerSnapshot() []int64 {
	xs := make([]int64, t.workers)
	for w := range xs {
		xs[w] = t.perWorker[w].v.Load()
	}
	return xs
}

// Result is one finished run.
type Result struct {
	// Lock is the case name; Workers/Iters/CSWork/Rate/WindowOps echo
	// the configuration (WindowOps resolved from the default).
	Lock      string
	Workers   int
	Iters     int
	CSWork    int
	Rate      float64
	WindowOps int
	Progress
}

// ArtifactRow converts the result into its fetchphi.stress/v1 row.
func (r *Result) ArtifactRow() obs.StressLock {
	return obs.StressLock{
		Lock:          r.Lock,
		Workers:       r.Workers,
		WindowOps:     r.WindowOps,
		Ops:           r.Ops,
		ElapsedMS:     float64(r.ElapsedNS) / 1e6,
		OpsPerSec:     r.OpsPerSec(),
		AcquireP50NS:  r.AcquireNS.Quantile(0.5),
		AcquireP99NS:  r.AcquireNS.Quantile(0.99),
		AcquireP999NS: r.AcquireNS.Quantile(0.999),
		JainIndex:     r.JainIndex,
		MinWindowJain: r.MinWindowJain,
		AcquireNS:     r.AcquireNS,
		HandoffNS:     r.HandoffNS,
		HoldNS:        r.HoldNS,
		WindowRates:   r.WindowRates,
		PerWorkerOps:  r.PerWorkerOps,
	}
}

// Run drives one case under the configuration and returns its result.
// Every run double-checks mutual exclusion: an unprotected counter is
// incremented once per critical section, and a lost update fails the
// run with an error rather than recording corrupt numbers.
func Run(c Case, cfg Config) (*Result, error) {
	if cfg.Workers < 1 || cfg.Iters < 1 {
		return nil, fmt.Errorf("stress: Workers and Iters must be positive (got %d, %d)", cfg.Workers, cfg.Iters)
	}
	if cfg.CSWork < 0 || cfg.Rate < 0 || cfg.WindowOps < 0 {
		return nil, fmt.Errorf("stress: CSWork, Rate, and WindowOps must be non-negative")
	}
	cs := c.Make(cfg.Workers)
	reg := telemetry.New(cfg.Now)
	tr := newTracker(reg, cfg)
	if cfg.OnTracker != nil {
		cfg.OnTracker(tr)
	}

	var (
		counter int64 // deliberately unprotected: the lock must protect it
		lastRel int64 // release stamp of the previous holder, lock-protected
		scratch = make([]int, 32)
		wg      sync.WaitGroup
	)
	for w := 0; w < cfg.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.Iters; i++ {
				var t0 time.Time
				if cfg.Rate > 0 {
					// Open loop: this worker owns arrivals w, w+Workers, …
					// of the global sequence; wait for the scheduled
					// instant, then measure from it.
					j := int64(i)*int64(cfg.Workers) + int64(w)
					t0 = tr.start.Add(time.Duration(float64(j) * 1e9 / cfg.Rate))
					for reg.Now().Before(t0) {
						runtime.Gosched()
					}
				} else {
					t0 = reg.Now()
				}
				var tAcq, tRel time.Time
				var ord, prevRel int64
				cs(w, func() {
					tAcq = reg.Now()
					// The ordinal is claimed while holding the lock, so
					// it is the acquisition's position in true
					// critical-section order — what the fairness
					// windows slice over.
					ord = tr.ordSeq.Add(1) - 1
					prevRel = lastRel
					counter++
					for k := 0; k < cfg.CSWork; k++ {
						scratch[k%len(scratch)]++
					}
					tRel = reg.Now()
					lastRel = tRel.Sub(tr.start).Nanoseconds() + 1
				})
				acqEl := tAcq.Sub(tr.start).Nanoseconds()
				tr.record(w, ord, tAcq.Sub(t0).Nanoseconds(), acqEl, prevRel, tRel.Sub(tAcq).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	tr.finish(reg.Now())
	if counter != cfg.total() {
		return nil, fmt.Errorf("stress: %s lost updates: %d != %d — mutual exclusion violated", c.Name, counter, cfg.total())
	}
	return &Result{
		Lock:      c.Name,
		Workers:   cfg.Workers,
		Iters:     cfg.Iters,
		CSWork:    cfg.CSWork,
		Rate:      cfg.Rate,
		WindowOps: int(tr.windowOps),
		Progress:  tr.Snapshot(),
	}, nil
}
