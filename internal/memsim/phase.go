package memsim

// Phase labels which section of a mutual exclusion algorithm a process
// is currently executing. The harness workload drives the transitions
// (BeginEntrySection → EnterCS → ExitCS → EndExitSection), so every
// remote memory reference can be attributed to the phase that incurred
// it: the paper's RMR bounds are stated for the entry+exit sections,
// and a per-phase breakdown shows where a construction actually pays.
type Phase uint8

// The phases, in the order a critical-section entry traverses them.
const (
	// PhaseNCS is the non-critical section (also the initial phase).
	PhaseNCS Phase = iota
	// PhaseEntry is the entry section (Acquire).
	PhaseEntry
	// PhaseCS is the critical section itself.
	PhaseCS
	// PhaseExit is the exit section (Release).
	PhaseExit
	// NumPhases bounds per-phase accounting arrays.
	NumPhases
)

// String implements fmt.Stringer; the names are also the keys of the
// per-phase maps in benchmark artifacts.
func (ph Phase) String() string {
	switch ph {
	case PhaseNCS:
		return "ncs"
	case PhaseEntry:
		return "entry"
	case PhaseCS:
		return "cs"
	case PhaseExit:
		return "exit"
	default:
		return "?"
	}
}
