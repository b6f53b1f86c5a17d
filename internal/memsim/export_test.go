package memsim

// NewChooser exposes the explorer's preemption-schedule Scheduler to
// the external tests, so they can record its picks through an Observer.
func NewChooser(sched []Preemption) Scheduler { return &chooser{preemptions: sched} }

// NextWave builds the wave after w from its outcomes, as ExploreWaves
// does between waves.
func NextWave(w Wave, out []ScheduleOutcome) Wave { return nextWave(w, out) }

// ScanRunnable recomputes the runnable set from scratch: the ids of
// every process whose status is Ready or Recheck, ascending. The
// cross-check tests compare it with the maintained set the engine
// hands its Scheduler at every step.
func ScanRunnable(m *Machine) []int {
	var ids []int
	for _, p := range m.procs {
		if p.status == statusReady || p.status == statusRecheck {
			ids = append(ids, p.id)
		}
	}
	return ids
}

// VarLabels returns the label of every variable m has allocated, in
// allocation order. The label golden test pins them across changes to
// how variables are stored and named.
func VarLabels(m *Machine) []string {
	labels := make([]string, 0, m.nvars)
	m.eachVar(func(vv *variable) { labels = append(labels, vv.label()) })
	return labels
}

// DropReleasedMachines empties the free list, so NewMachine builds
// never-recycled machines until the next Release.
func DropReleasedMachines() {
	freeMachines.Lock()
	defer freeMachines.Unlock()
	clear(freeMachines.list)
	freeMachines.list = freeMachines.list[:0]
}

// ReleasedMachines returns the number of machines on the free list.
func ReleasedMachines() int {
	freeMachines.Lock()
	defer freeMachines.Unlock()
	return len(freeMachines.list)
}
