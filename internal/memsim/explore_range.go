package memsim

// This file is the exported wave-range execution API: it lets an
// external driver (the distributed fleet coordinator/worker pair in
// internal/fleet, or any future backend) decide where each wave's
// schedules execute, while memsim keeps owning schedule execution,
// child generation and — through ExploreWaves — the wave loop itself.
// A wave is a Wave: its depth, its length and one slab of preemptions
// holding every schedule back to back. A range is any contiguous run
// of its schedules (Wave.Range, a slice of the same slab), and its
// outcome is a RangeOutcome: three flat arrays, a child count per
// schedule, each child's appended preemption and the failures. Each
// schedule's outcome is a pure function of the machine, so a driver
// that executes every index of a wave exactly once and hands
// ExploreWaves range outcomes that tile the wave reproduces
// Explorer.Run bit for bit, whatever machine, process, or lease the
// indices ran on.

// RunScheduleRange executes the schedules of w, a wave or a range of
// one, against fresh machines from Build and returns their outcome as
// one range with Lo 0. The schedules are sharded across e.Workers
// goroutines with work stealing (values <= 1 run sequentially); the
// arrays are identical either way, because the pieces the workers ran
// are joined in index order. Drivers set each range's Lo to its place
// in the wave and return the ranges, in order, from their ExploreWaves
// exec, which merges them exactly as for Explorer.Run.
//
// A schedule that forces a switch to a process that is not runnable at
// its step diverges from every run the machine can make; the range
// stops, and the divergence comes back as the error. Every other panic,
// in Build or a process body, is re-raised.
func (e *Explorer) RunScheduleRange(w Wave) (RangeOutcome, error) {
	if w.Len == 0 {
		return RangeOutcome{}, nil
	}
	out, err := e.runWave(w, 0)
	switch {
	case err != nil:
		return RangeOutcome{}, err
	case len(out) == 1:
		return out[0], nil
	}
	// The workers split the range: join their pieces.
	j := RangeOutcome{Children: make([]int, 0, w.Len)}
	for _, r := range out {
		for _, f := range r.Failures {
			j.Failures = append(j.Failures, Failure{Index: r.Lo + f.Index, Err: f.Err})
		}
		j.Children = append(j.Children, r.Children...)
		j.Appended = append(j.Appended, r.Appended...)
	}
	return j, nil
}

// RootWave returns the canonical first wave of every exploration: the
// single empty (purely non-preemptive) schedule. Exported so external
// wave drivers seed their Frontier with exactly the value Explorer.Run
// uses — a nil schedule, which matters for bit-identical
// FailingSchedule reporting.
func RootWave() Wave {
	return Wave{Len: 1}
}
