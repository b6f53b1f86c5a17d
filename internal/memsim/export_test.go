package memsim

// NewChooser exposes the explorer's preemption-schedule Scheduler to
// the external tests, so they can record its picks through an Observer.
func NewChooser(sched []Preemption) Scheduler { return &chooser{preemptions: sched} }
