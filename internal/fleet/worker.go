package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// Worker is the fleet's data plane: a stateless loop that claims
// leases from a coordinator, executes them through the exact same
// explorer construction as every local check path
// (harness.CheckExplorer + RunScheduleRange), and reports the
// outcomes. Workers carry no campaign state between leases, which is
// why killing one mid-lease loses nothing but time: the coordinator
// re-leases the range at its deadline and any worker re-derives the
// identical outcomes.
type Worker struct {
	// ID names the worker in the coordinator's per-worker counters
	// and status.
	ID string
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Resolve maps the campaign's algorithm name to a builder
	// (production workers pass experiments.Algorithm; in-process
	// checks close over the builder under test).
	Resolve func(algorithm string) (harness.Builder, error)
	// Shards is the local wave-shard width per lease: 1 executes the
	// leased range sequentially, 0 or less on runtime.GOMAXPROCS(0)
	// shards.
	Shards int
	// Client is the HTTP client (default http.DefaultClient); tests
	// inject fault-y transports here.
	Client *http.Client
	// Poll is the base delay of the backoff between HTTP retries
	// (default 50ms). A StatusWait answer is not retried after a delay:
	// the coordinator held that request as long as it usefully could,
	// so the worker asks again at once.
	Poll time.Duration
	// Retries is the attempt budget per HTTP call (default 5) — a
	// dropped response is retried, and a duplicate report is ignored
	// idempotently on the coordinator side.
	Retries int
	// MaxBackoff caps the jittered exponential backoff between HTTP
	// retries (default 2s): Poll is the base delay, and each further
	// failed attempt of the same call doubles it up to this cap.
	MaxBackoff time.Duration
	// Sleep substitutes the backoff sleeper (default: a timer honoring
	// ctx). Tests inject instant recorders to pin the backoff sequence
	// without waiting it out.
	Sleep func(ctx context.Context, d time.Duration) error

	explorers map[memsim.Model]*memsim.Explorer
	build     harness.Builder
	cfg       Config
	rng       *rand.Rand
}

// jitterSeed derives the worker's deterministic jitter seed from its
// ID: jitter de-synchronizes workers (its whole point), while a fixed
// per-ID seed keeps any single worker's backoff sequence reproducible
// under test.
func jitterSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// Run executes leases until the coordinator reports the campaign done,
// the context is cancelled, or the HTTP retry budget is exhausted on a
// call. Returns nil on a normal "done" exit.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		w.Client = http.DefaultClient
	}
	if w.Poll <= 0 {
		w.Poll = 50 * time.Millisecond
	}
	if w.Retries <= 0 {
		w.Retries = 5
	}
	if w.MaxBackoff <= 0 {
		w.MaxBackoff = 2 * time.Second
	}
	if w.Sleep == nil {
		w.Sleep = sleepCtx
	}
	w.rng = rand.New(rand.NewSource(jitterSeed(w.ID)))
	if err := w.call(ctx, PathConfig, nil, &w.cfg); err != nil {
		return err
	}
	b, err := w.Resolve(w.cfg.Algorithm)
	if err != nil {
		return err
	}
	w.build = b
	w.explorers = make(map[memsim.Model]*memsim.Explorer)

	for {
		var resp LeaseResponse
		if err := w.call(ctx, PathLease, LeaseRequest{Worker: w.ID}, &resp); err != nil {
			return err
		}
		switch resp.Status {
		case StatusDone:
			return nil
		case StatusWait:
			// Held until nothing more could come of it: ask again.
		case StatusLease:
			if err := w.execute(ctx, resp.Lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: coordinator returned unknown lease status %q", resp.Status)
		}
	}
}

// backoff sleeps before the retry after streak+1 failed attempts of
// one call: Poll doubled streak times, capped at MaxBackoff, then
// jittered uniformly over its upper half so workers cut off together
// de-synchronize instead of hammering the coordinator in lockstep.
func (w *Worker) backoff(ctx context.Context, streak int) error {
	d := w.Poll
	for i := 0; i < streak && d < w.MaxBackoff; i++ {
		d *= 2
	}
	if d > w.MaxBackoff {
		d = w.MaxBackoff
	}
	if half := int64(d / 2); half > 0 {
		d = d/2 + time.Duration(w.rng.Int63n(half+1))
	}
	return w.Sleep(ctx, d)
}

// execute runs one lease and reports its outcome: the range's arrays as
// the explorer returned them, with each failure's error as text. A
// lease the coordinator could not have granted, or a schedule that
// diverges from every run the machine can make, is an error, and no
// report is sent.
func (w *Worker) execute(ctx context.Context, lease *Lease) error {
	if lease == nil {
		return fmt.Errorf("fleet: lease response carried no lease")
	}
	model, err := memsim.ParseModel(lease.Model)
	if err != nil {
		return err
	}
	e, ok := w.explorers[model]
	if !ok {
		opts := harness.ExploreOptions{Preemptions: w.cfg.Preemptions, Workers: w.Shards}
		e = harness.CheckExplorer(w.build, model, w.cfg.N, w.cfg.Entries, opts)
		w.explorers[model] = e
	}
	wave, err := leaseWave(lease, e.MaxPreemptions, w.cfg.N)
	if err != nil {
		return fmt.Errorf("fleet: lease %d for range [%d,%d): %w", lease.ID, lease.Lo, lease.Hi, err)
	}
	out, err := e.RunScheduleRange(wave)
	if err != nil {
		return fmt.Errorf("fleet: lease %d for range [%d,%d): %w", lease.ID, lease.Lo, lease.Hi, err)
	}
	report := ReportRequest{
		Worker:   w.ID,
		LeaseID:  lease.ID,
		Model:    lease.Model,
		Depth:    lease.Depth,
		Lo:       lease.Lo,
		Hi:       lease.Hi,
		Children: out.Children,
		Appended: out.Appended,
	}
	if report.Appended == nil {
		report.Appended = obs.Pairs{} // a range without children appends [], not null
	}
	for _, f := range out.Failures {
		report.Failures = append(report.Failures, Failure{Index: f.Index, Error: f.Err.Error()})
	}
	var resp ReportResponse
	// A rejected report is fine: the range was completed by a
	// re-lease, or this is a retry after a lost response.
	return w.call(ctx, PathReport, report, &resp)
}

// leaseWave checks a lease before any of its schedules runs and
// returns them as a wave: a range within a wave at a depth the
// preemption bound maxPre allows, holding Hi−Lo schedules of Depth
// preemptions each at non-negative, strictly increasing steps, each
// naming one of the campaign's n processes (checkSchedules).
func leaseWave(l *Lease, maxPre, n int) (memsim.Wave, error) {
	size := l.Hi - l.Lo
	switch {
	case l.Lo < 0 || size < 0:
		return memsim.Wave{}, fmt.Errorf("range is not within a wave")
	case l.Depth < 0 || l.Depth > maxPre:
		return memsim.Wave{}, fmt.Errorf("depth %d is outside the campaign's [0,%d]", l.Depth, maxPre)
	}
	if err := checkSchedules(l.Schedules, l.Depth, size, n); err != nil {
		return memsim.Wave{}, err
	}
	return memsim.Wave{Depth: l.Depth, Len: size, Slab: l.Schedules}, nil
}

// call sends one request to the coordinator, a GET when body is nil
// and else a POST of body as JSON, and decodes the JSON response into
// out. It retries transport failures (including dropped responses)
// with jittered backoff, up to w.Retries times. Every retried POST is
// safe: leases are granted fresh per call, and duplicate reports are
// idempotent on the coordinator.
func (w *Worker) call(ctx context.Context, path string, body, out any) error {
	method, payload := http.MethodGet, []byte(nil)
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		method, payload = http.MethodPost, data
	}
	var lastErr error
	for attempt := 0; attempt < w.Retries; attempt++ {
		if attempt > 0 {
			if err := w.backoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, w.Coordinator+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.Client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		err = decodeBody(resp, out)
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("fleet: %s %s: %w", path, w.Coordinator, lastErr)
}

// decodeBody reads and decodes one JSON response.
func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return readJSON(resp.Body, resp.ContentLength, out)
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	//fetchphilint:ignore determinism worker retry pacing; never touches results
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
