package fleet

import (
	"fmt"
	"sync"
	"time"

	"fetchphi/internal/memsim"
)

// This file is the lease table: the coordinator's bookkeeping for one
// active wave. The wave's index space is cut into a fixed grid of
// contiguous ranges; each range moves pending → leased → done, with
// leased ranges falling back to claimable when their deadline passes.
// The grid never changes after construction, so a range's identity is
// its index — whichever lease (first grant, or a re-lease after a
// worker died) eventually delivers the outcomes, they land in the same
// slots. That is the whole fault-tolerance story: worker loss delays a
// wave, it cannot change the result.

// Lease states.
const (
	rangePending = iota
	rangeLeased
	rangeDone
)

// waveRange is one grid cell of the active wave.
type waveRange struct {
	lo, hi   int
	state    int
	leaseID  int64
	worker   string
	deadline time.Time
	outcomes []memsim.ScheduleOutcome
}

// leaseTable tracks the active wave's ranges. All methods are
// goroutine-safe; completion is signaled by closing done.
type leaseTable struct {
	model   memsim.Model
	depth   int
	wave    [][]memsim.Preemption
	timeout time.Duration
	// now is injected by the coordinator (wall clock in production,
	// a fake in the fault-injection tests).
	now func() time.Time

	mu        sync.Mutex
	ranges    []*waveRange
	remaining int
	done      chan struct{}
}

// newLeaseTable cuts wave into ranges of at most size indices.
func newLeaseTable(model memsim.Model, depth int, wave [][]memsim.Preemption, size int, timeout time.Duration, now func() time.Time) *leaseTable {
	if size < 1 {
		size = 1
	}
	t := &leaseTable{
		model:   model,
		depth:   depth,
		wave:    wave,
		timeout: timeout,
		now:     now,
		done:    make(chan struct{}),
	}
	for lo := 0; lo < len(wave); lo += size {
		hi := lo + size
		if hi > len(wave) {
			hi = len(wave)
		}
		t.ranges = append(t.ranges, &waveRange{lo: lo, hi: hi, state: rangePending})
	}
	t.remaining = len(t.ranges)
	return t
}

// claim grants the first pending range — or, failing that, re-leases
// the first expired one — to worker, under the given lease ID. The
// returned event kind distinguishes a first grant from a re-lease;
// ok is false when nothing is claimable right now (every range is done
// or leased with a live deadline).
func (t *leaseTable) claim(worker string, leaseID int64) (lease *Lease, kind string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var pick *waveRange
	for _, r := range t.ranges {
		if r.state == rangePending {
			pick, kind = r, "lease"
			break
		}
	}
	if pick == nil {
		for _, r := range t.ranges {
			if r.state == rangeLeased && !r.deadline.After(now) {
				pick, kind = r, "re-lease"
				break
			}
		}
	}
	if pick == nil {
		return nil, "", false
	}
	pick.state = rangeLeased
	pick.leaseID = leaseID
	pick.worker = worker
	pick.deadline = now.Add(t.timeout)
	var flat []int64
	if t.depth > 0 {
		flat = flatten(make([]int64, 0, 2*t.depth*(pick.hi-pick.lo)), t.wave[pick.lo:pick.hi])
	}
	return &Lease{
		ID:         leaseID,
		Model:      t.model.String(),
		Depth:      t.depth,
		Lo:         pick.lo,
		Hi:         pick.hi,
		Schedules:  flat,
		DeadlineMS: t.timeout.Milliseconds(),
	}, kind, true
}

// outcomes checks a report's outcomes against the wave and rebuilds
// them: each child is its parent, wave[Lo+i], plus the preemption the
// wire appends to it. n is the campaign's process count and maxPre its
// preemption bound. An error leaves the range as it was. The wave never
// changes after construction, so this takes no lock.
func (t *leaseTable) outcomes(req *ReportRequest, n, maxPre int) ([]memsim.ScheduleOutcome, error) {
	if req.Lo < 0 || req.Lo > req.Hi || req.Hi > len(t.wave) || len(req.Outcomes) != req.Hi-req.Lo {
		return nil, fmt.Errorf("fleet: report for range [%d,%d) with %d outcomes does not fit the %d-schedule wave", req.Lo, req.Hi, len(req.Outcomes), len(t.wave))
	}
	expand := t.depth < maxPre
	out := make([]memsim.ScheduleOutcome, len(req.Outcomes))
	for i := range req.Outcomes {
		o := &req.Outcomes[i]
		parent := t.wave[req.Lo+i]
		if err := checkChildren(parent, o, n, expand); err != nil {
			return nil, fmt.Errorf("fleet: report for range [%d,%d), schedule %d: %w", req.Lo, req.Hi, req.Lo+i, err)
		}
		if o.Failure != "" {
			out[i].Err = errorString(o.Failure)
		}
		out[i].Children = extend(parent, o.Children)
	}
	return out, nil
}

// report delivers one range's outcomes. Reports are accepted for any
// not-yet-done range with a matching geometry — including reports from
// an expired lease that was since re-granted, because wave execution
// is deterministic and every report for a range carries identical
// outcomes. Duplicate reports for a done range are ignored (accepted =
// false), which is what a worker sees after its response to an earlier
// identical report was lost in flight.
func (t *leaseTable) report(req *ReportRequest, outcomes []memsim.ScheduleOutcome) (accepted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.ranges {
		if r.lo != req.Lo {
			continue
		}
		if r.hi != req.Hi || len(outcomes) != r.hi-r.lo {
			return false, fmt.Errorf("fleet: report for range [%d,%d) with %d outcomes does not match the wave grid range [%d,%d)", req.Lo, req.Hi, len(outcomes), r.lo, r.hi)
		}
		if r.state == rangeDone {
			return false, nil
		}
		r.state = rangeDone
		r.outcomes = outcomes
		t.remaining--
		if t.remaining == 0 {
			close(t.done)
		}
		return true, nil
	}
	return false, fmt.Errorf("fleet: report for range [%d,%d) does not start on the wave grid", req.Lo, req.Hi)
}

// collect concatenates the per-range outcomes in grid order; it must
// only be called after done is closed.
func (t *leaseTable) collect() []memsim.ScheduleOutcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]memsim.ScheduleOutcome, 0, len(t.wave))
	for _, r := range t.ranges {
		out = append(out, r.outcomes...)
	}
	return out
}

// counts reports the range-state totals for status snapshots.
func (t *leaseTable) counts() (pending, leased, doneN int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.ranges {
		switch r.state {
		case rangePending:
			pending++
		case rangeLeased:
			leased++
		case rangeDone:
			doneN++
		}
	}
	return
}
