package memsim

// This file is the exported wave-range execution API: it lets an
// external driver (the distributed fleet coordinator/worker pair in
// internal/fleet, or any future backend) decide where each wave's
// schedules execute, while memsim keeps owning schedule execution,
// child generation and — through ExploreWaves — the wave loop itself.
// A wave is a canonically ordered slice of schedules, a range is any
// contiguous sub-slice of it, and the per-index outcomes are a pure
// function of the machine, so a driver that executes every index of a
// wave exactly once and hands ExploreWaves the outcomes by index
// reproduces Explorer.Run bit for bit, whatever machine, process, or
// lease the indices ran on.

// ResolvedPreemptions returns the literal preemption bound K that the
// Explorer's MaxPreemptions encoding selects: ZeroPreemptions resolves
// to 0, zero resolves to DefaultPreemptions, positive values pass
// through. External wave drivers need it because child generation
// stops at the bound, and every executor of the same campaign must
// agree on where that is.
func (e *Explorer) ResolvedPreemptions() int {
	switch {
	case e.MaxPreemptions < 0:
		return 0
	case e.MaxPreemptions == 0:
		return DefaultPreemptions
	default:
		return e.MaxPreemptions
	}
}

// RunScheduleRange executes a contiguous range of one wave's schedules
// against fresh machines from Build and returns their outcomes indexed
// like scheds. The range is sharded across e.Workers goroutines with
// work stealing (values <= 1 run sequentially); the outcomes are
// identical either way because each one lands at its own index.
// Drivers reassemble a wave by concatenating range outcomes in index
// order and return it from their ExploreWaves exec, which merges it
// exactly as for Explorer.Run.
func (e *Explorer) RunScheduleRange(scheds [][]Preemption) []ScheduleOutcome {
	if len(scheds) == 0 {
		return nil
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	return e.runWave(scheds, 0, 0, e.ResolvedPreemptions(), workers)
}

// RootWave returns the canonical first wave of every exploration: the
// single empty (purely non-preemptive) schedule. Exported so external
// wave drivers seed their Frontier with exactly the value Explorer.Run
// uses — a nil schedule, which matters for bit-identical
// FailingSchedule reporting.
func RootWave() [][]Preemption {
	return [][]Preemption{nil}
}
