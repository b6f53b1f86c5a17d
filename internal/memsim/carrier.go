//go:build go1.23

package memsim

// The build constraint raises this file's language version to 1.23,
// which iter.Pull needs; go.mod stays at go 1.22 so that the modules
// replacing this one (bench/perf) build without updating their go.mod.

import "iter"

// carrier is a reusable process coroutine: an iter.Pull coroutine that
// runs the process bodies bound to it one after another and keeps its
// stack between them. A body that grew the stack (deep algorithm code,
// lazily built objects) leaves it grown for the next one, where a fresh
// coroutine per process would grow it again from the minimum every run.
//
// The machine's run loop (Machine.RunOn) resumes a carrier with next;
// the process gives control back at a scheduling point with yield, and
// the carrier gives it back when the body is over. A switch between the
// run loop and a carrier is a direct coroutine switch, which never
// enters the Go scheduler.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// proc is the process bound to the carrier for the run in progress.
	// The first resumption after a bind starts it.
	proc *Proc
	// dead is set when the coroutine has finished: a body panicked with
	// a value the engine does not handle (iter.Pull re-raised it in the
	// run loop) or called runtime.Goexit, so the next bind replaces the
	// carrier.
	dead bool
}

func newCarrier() *carrier {
	c := new(carrier)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine body: it runs each bound process once it is
// first resumed (or unwinds it, if the run is torn down first), then
// gives control back and waits for the next one, until the set closes.
// Proc.run returns only once its process is over, so the carrier is
// idle again before the machine's run returns.
func (c *carrier) loop(yield func(struct{}) bool) {
	defer func() { c.dead = true }()
	c.yield = yield
	for {
		c.proc.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// Carriers is the coroutines a sequence of machines runs its processes
// on: carrier i runs process i of every machine started on the set, one
// machine at a time. Each explorer worker owns one set for a whole
// wave, and each sweep worker one for all of its cells, so their runs
// reuse N coroutines instead of creating N fresh ones each; a machine
// run on its own (Machine.Run) gets a one-shot set. The zero value is
// an empty set, ready to use. A set is not safe for concurrent use, and
// its owner must Close it once done.
type Carriers struct {
	carriers []*carrier
}

// bind gives process i of a machine about to run to carrier i,
// creating the carriers the set lacks and replacing any that died. A
// bound process does nothing until it is first resumed.
func (s *Carriers) bind(procs []*Proc) {
	for len(s.carriers) < len(procs) {
		s.carriers = append(s.carriers, newCarrier())
	}
	for i, p := range procs {
		c := s.carriers[i]
		if c.dead {
			c = newCarrier()
			s.carriers[i] = c
		}
		c.proc = p
		p.carrier = c
	}
}

// Close retires the set's carriers. No machine started on the set may
// still be running. The set is empty, and usable again, afterwards.
func (s *Carriers) Close() {
	for _, c := range s.carriers {
		c.stop()
	}
	s.carriers = nil
}
