package memsim

// carrier is a reusable process goroutine. It runs one process body at
// a time and keeps its stack between them: a body that grew the stack
// (deep algorithm code, lazily built objects) leaves it grown for the
// next one, where a fresh goroutine per process would grow it again
// from the minimum every run.
type carrier struct {
	// resume is the baton of the process the carrier runs (see
	// Proc.resume). The carrier owns it: every process bound to the
	// carrier uses it, and closing it retires the carrier.
	resume chan bool
	// proc is the process bound to the carrier for the run in progress.
	// The first baton the carrier receives while idle starts it.
	proc *Proc
}

// loop runs each bound process once it is first scheduled (or unwinds
// it, if the run is torn down first), until the set closes. Proc.run
// returns only once its process is over, having handed the baton on or
// acknowledged its teardown, so the carrier is idle again before the
// machine's run returns.
func (c *carrier) loop() {
	for kill := range c.resume {
		c.proc.run(kill)
	}
}

// carrierSet is the goroutines a sequence of machines runs its
// processes on: carrier i runs process i of every machine started on
// the set, one machine at a time. Each explorer worker owns one set for
// a whole wave, so its schedules reuse N goroutines instead of starting
// N fresh ones each; a machine run on its own (Machine.Run) gets a
// one-shot set. A set is not safe for concurrent use.
type carrierSet struct {
	carriers []*carrier
}

// bind gives process i of a machine about to run to carrier i,
// creating the carriers the set lacks. A bound process does nothing
// until it is first scheduled.
func (s *carrierSet) bind(procs []*Proc) {
	for len(s.carriers) < len(procs) {
		c := &carrier{resume: make(chan bool)}
		go c.loop()
		s.carriers = append(s.carriers, c)
	}
	for i, p := range procs {
		c := s.carriers[i]
		c.proc = p
		p.resume = c.resume
	}
}

// close retires the set's carriers. No machine started on the set may
// still be running.
func (s *carrierSet) close() {
	for _, c := range s.carriers {
		close(c.resume)
	}
	s.carriers = nil
}
