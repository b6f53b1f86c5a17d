package fleet

import (
	"errors"
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
// worker died) eventually delivers the outcome, it lands in the same
// cell. That is the whole fault-tolerance story: worker loss delays a
// wave, it cannot change the result.

// Lease states.
const (
	rangePending = iota
	rangeLeased
	rangeDone
)

// waveRange is one grid cell of the active wave. Once done, out holds
// the accepted report's arrays.
type waveRange struct {
	lo, hi   int
	state    int
	deadline time.Time
	out      memsim.RangeOutcome
}

// leaseTable tracks the active wave's ranges. All methods are
// goroutine-safe; completion is signaled by closing done.
type leaseTable struct {
	model   memsim.Model
	wave    memsim.Wave
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
func newLeaseTable(model memsim.Model, wave memsim.Wave, size int, timeout time.Duration, now func() time.Time) *leaseTable {
	if size < 1 {
		size = 1
	}
	t := &leaseTable{
		model:   model,
		wave:    wave,
		timeout: timeout,
		now:     now,
		done:    make(chan struct{}),
	}
	for lo := 0; lo < wave.Len; lo += size {
		t.ranges = append(t.ranges, &waveRange{lo: lo, hi: min(lo+size, wave.Len), state: rangePending})
	}
	t.remaining = len(t.ranges)
	return t
}

// claim grants the first pending range — or, failing that, re-leases
// the first expired one — under the given lease ID. The returned event
// kind distinguishes a first grant from a re-lease; ok is false when
// nothing is claimable right now (every range is done or leased with a
// live deadline). The lease's schedules are the range's slice of the
// wave's slab, not a copy.
func (t *leaseTable) claim(leaseID int64) (lease *Lease, kind string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var pick, expired *waveRange
	for _, r := range t.ranges {
		if r.state == rangePending {
			pick, kind = r, "lease"
			break
		}
		if expired == nil && r.state == rangeLeased && !r.deadline.After(now) {
			expired = r
		}
	}
	if pick == nil {
		if expired == nil {
			return nil, "", false
		}
		pick, kind = expired, "re-lease"
	}
	pick.state = rangeLeased
	pick.deadline = now.Add(t.timeout)
	return &Lease{
		ID:         leaseID,
		Model:      t.model.String(),
		Depth:      t.wave.Depth,
		Lo:         pick.lo,
		Hi:         pick.hi,
		Schedules:  t.wave.Range(pick.lo, pick.hi).Slab,
		DeadlineMS: t.timeout.Milliseconds(),
	}, kind, true
}

// check rejects a report the explorer could not have produced for the
// wave's schedules [Lo, Hi) and returns the range's outcome: one child
// count per schedule, arrays that fit each other (RangeOutcome.Check),
// and every schedule's children well-formed for its parent
// (checkChildren). Failure texts become errors again, message-identical
// to the worker's. n is the campaign's process count and maxPre its
// preemption bound. The wave never changes after construction, so this
// takes no lock.
func (t *leaseTable) check(req *ReportRequest, n, maxPre int) (memsim.RangeOutcome, error) {
	out := memsim.RangeOutcome{Lo: req.Lo, Children: req.Children, Appended: req.Appended}
	if req.Lo < 0 || req.Lo > req.Hi || req.Hi > t.wave.Len || len(req.Children) != req.Hi-req.Lo {
		return out, fmt.Errorf("fleet: report for range [%d,%d) with %d child counts does not fit the %d-schedule wave", req.Lo, req.Hi, len(req.Children), t.wave.Len)
	}
	for _, f := range req.Failures {
		out.Failures = append(out.Failures, memsim.Failure{Index: f.Index, Err: errors.New(f.Error)})
	}
	if err := out.Check(); err != nil {
		return out, fmt.Errorf("fleet: report for range [%d,%d): %w", req.Lo, req.Hi, err)
	}
	expand := t.wave.Depth < maxPre
	off, next := 0, 0
	for i, c := range out.Children {
		failed := next < len(out.Failures) && out.Failures[next].Index == i
		if failed {
			next++
		}
		if err := checkChildren(t.wave.Schedule(req.Lo+i), out.Appended[off:off+c], failed, n, expand); err != nil {
			return out, fmt.Errorf("fleet: report for range [%d,%d), schedule %d: %w", req.Lo, req.Hi, req.Lo+i, err)
		}
		off += c
	}
	return out, nil
}

// report delivers one range's outcome, which check has accepted. It is
// accepted for any not-yet-done range with a matching geometry —
// including reports from an expired lease that was since re-granted,
// because wave execution is deterministic and every report for a range
// carries an identical outcome. Duplicate reports for a done range are
// ignored (accepted = false), which is what a worker sees after its
// response to an earlier identical report was lost in flight. An
// accepted outcome is kept in the range's cell as it is, its arrays
// the report's own.
func (t *leaseTable) report(out memsim.RangeOutcome) (accepted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hi := out.Lo + len(out.Children)
	for _, r := range t.ranges {
		if r.lo != out.Lo {
			continue
		}
		if r.hi != hi {
			return false, fmt.Errorf("fleet: report for range [%d,%d) does not match the wave grid range [%d,%d)", out.Lo, hi, r.lo, r.hi)
		}
		if r.state == rangeDone {
			return false, nil
		}
		r.state = rangeDone
		r.out = out
		t.remaining--
		if t.remaining == 0 {
			close(t.done)
		}
		return true, nil
	}
	return false, fmt.Errorf("fleet: report for range [%d,%d) does not start on the wave grid", out.Lo, hi)
}

// collect returns the wave's outcome, one range per grid cell in grid
// order; it must only be called after done is closed.
func (t *leaseTable) collect() []memsim.RangeOutcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]memsim.RangeOutcome, len(t.ranges))
	for i, r := range t.ranges {
		out[i] = r.out
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
