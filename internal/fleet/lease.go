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
	// out holds the wave's outcomes, filled range by range as reports
	// are accepted.
	out  []memsim.ScheduleOutcome
	done chan struct{}
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
		out:     make([]memsim.ScheduleOutcome, wave.Len),
		done:    make(chan struct{}),
	}
	for lo := 0; lo < wave.Len; lo += size {
		t.ranges = append(t.ranges, &waveRange{lo: lo, hi: min(lo+size, wave.Len), state: rangePending})
	}
	t.remaining = len(t.ranges)
	return t
}

// claim grants the first pending range — or, failing that, re-leases
// the first expired one — to worker, under the given lease ID. The
// returned event kind distinguishes a first grant from a re-lease;
// ok is false when nothing is claimable right now (every range is done
// or leased with a live deadline). The lease's schedules are the
// range's slice of the wave's slab, not a copy.
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
// wave's schedules [Lo, Hi): one child count per schedule, counts that
// sum to the appended preemptions, failures named once each, in order,
// within the range, and every schedule's children well-formed for its
// parent (checkChildren). n is the campaign's process count and maxPre
// its preemption bound. The wave never changes after construction, so
// this takes no lock.
func (t *leaseTable) check(req *ReportRequest, n, maxPre int) error {
	size := req.Hi - req.Lo
	if req.Lo < 0 || req.Lo > req.Hi || req.Hi > t.wave.Len || len(req.Children) != size {
		return fmt.Errorf("fleet: report for range [%d,%d) with %d child counts does not fit the %d-schedule wave", req.Lo, req.Hi, len(req.Children), t.wave.Len)
	}
	for k, f := range req.Failures {
		if f.Index < 0 || f.Index >= size || k > 0 && f.Index <= req.Failures[k-1].Index {
			return fmt.Errorf("fleet: report for range [%d,%d): failure %d names schedule %d, not a later one of the range's %d", req.Lo, req.Hi, k, f.Index, size)
		}
	}
	expand := t.wave.Depth < maxPre
	off, next := 0, 0
	for i, c := range req.Children {
		failed := next < len(req.Failures) && req.Failures[next].Index == i
		if failed {
			next++
		}
		if c < 0 || c > len(req.Appended)-off {
			return fmt.Errorf("fleet: report for range [%d,%d), schedule %d: %d children, but %d appended preemptions left", req.Lo, req.Hi, req.Lo+i, c, len(req.Appended)-off)
		}
		if err := checkChildren(t.wave.Schedule(req.Lo+i), req.Appended[off:off+c], failed, n, expand); err != nil {
			return fmt.Errorf("fleet: report for range [%d,%d), schedule %d: %w", req.Lo, req.Hi, req.Lo+i, err)
		}
		off += c
	}
	if off != len(req.Appended) {
		return fmt.Errorf("fleet: report for range [%d,%d): child counts sum to %d, but %d preemptions are appended", req.Lo, req.Hi, off, len(req.Appended))
	}
	return nil
}

// report delivers one range's outcomes, which check has accepted. They
// are accepted for any not-yet-done range with a matching geometry —
// including reports from an expired lease that was since re-granted,
// because wave execution is deterministic and every report for a range
// carries identical outcomes. Duplicate reports for a done range are
// ignored (accepted = false), which is what a worker sees after its
// response to an earlier identical report was lost in flight. An
// accepted report's outcomes land in the wave's slots, each schedule's
// children a slice of the report's appended preemptions.
func (t *leaseTable) report(req *ReportRequest) (accepted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.ranges {
		if r.lo != req.Lo {
			continue
		}
		if r.hi != req.Hi || len(req.Children) != r.hi-r.lo {
			return false, fmt.Errorf("fleet: report for range [%d,%d) with %d child counts does not match the wave grid range [%d,%d)", req.Lo, req.Hi, len(req.Children), r.lo, r.hi)
		}
		if r.state == rangeDone {
			return false, nil
		}
		r.state = rangeDone
		off := 0
		for i, c := range req.Children {
			if c > 0 {
				t.out[r.lo+i].Children = req.Appended[off : off+c : off+c]
				off += c
			}
		}
		for _, f := range req.Failures {
			t.out[r.lo+f.Index].Err = errorString(f.Error)
		}
		t.remaining--
		if t.remaining == 0 {
			close(t.done)
		}
		return true, nil
	}
	return false, fmt.Errorf("fleet: report for range [%d,%d) does not start on the wave grid", req.Lo, req.Hi)
}

// collect returns the wave's outcomes in index order; it must only be
// called after done is closed.
func (t *leaseTable) collect() []memsim.ScheduleOutcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.out
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
