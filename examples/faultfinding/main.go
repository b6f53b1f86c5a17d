// faultfinding: use the repository's verification substrate — the
// CHESS-style preemption-bounded explorer, PCT schedulers, and the
// execution trace recorder — to hunt a real concurrency bug: Algorithm
// G-CC exactly as printed in the paper's Fig. 2, without the
// stale-signal completion (DESIGN.md, deviation 1).
//
//	go run ./examples/faultfinding
package main

import (
	"fmt"

	"fetchphi/internal/core"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// build constructs the buggy machine: three processes cycling through
// the critical section enough times to recycle the queues repeatedly.
func build() *memsim.Machine {
	m := memsim.NewMachine(memsim.CC, 3)
	alg := core.NewGCCWithoutStaleClear(m, phi.FetchAndIncrement{})
	for i := 0; i < 3; i++ {
		m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
			for e := 0; e < 40; e++ {
				alg.Acquire(p)
				p.EnterCS()
				p.ExitCS()
				alg.Release(p)
			}
		})
	}
	return m
}

// lastEvents is an event sink that keeps the most recent keep events,
// oldest first.
type lastEvents struct {
	keep   int
	events []memsim.TraceEvent
}

// Record implements memsim.EventSink.
func (l *lastEvents) Record(ev memsim.TraceEvent) {
	if len(l.events) == l.keep {
		l.events = append(l.events[:0], l.events[1:]...)
	}
	l.events = append(l.events, ev)
}

func main() {
	fmt.Println("hunting the stale-signal bug in G-CC-as-printed...")

	// Strategy 1: uniform random schedules.
	fmt.Println("\n1. random schedules:")
	for seed := int64(0); seed < 50; seed++ {
		m := build()
		res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(seed), MaxSteps: 2_000_000})
		if err := res.Err(); err != nil {
			fmt.Printf("   seed %2d: FOUND after %d steps\n   %v\n", seed, res.Steps, err)
			break
		}
	}

	// Strategy 2: PCT — directed at a fixed bug depth.
	fmt.Println("\n2. probabilistic concurrency testing (depth 3):")
	for seed := int64(0); seed < 300; seed++ {
		m := build()
		res := m.Run(memsim.RunConfig{Sched: memsim.NewPCT(seed, 3, 4000), MaxSteps: 2_000_000})
		if err := res.Err(); err != nil {
			fmt.Printf("   seed %2d: FOUND after %d steps\n", seed, res.Steps)
			break
		}
	}

	// Strategy 3: replay the failure with the trace recorder to see
	// the final operations before the violation.
	fmt.Println("\n3. trace of the failing run (last 12 operations):")
	var failSeed int64 = -1
	for seed := int64(0); seed < 50; seed++ {
		if build().Run(memsim.RunConfig{Sched: memsim.NewRandom(seed), MaxSteps: 2_000_000}).Err() != nil {
			failSeed = seed
			break
		}
	}
	if failSeed < 0 {
		fmt.Println("   (no failing seed in range)")
		return
	}
	m := build()
	last := &lastEvents{keep: 12}
	m.AttachSink(last)
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(failSeed), MaxSteps: 2_000_000})
	// Labels are the machine's: print them before it is released.
	for _, ev := range last.events {
		fmt.Println(ev.Format(m.Label(ev.Var)))
	}
	m.Release()
	fmt.Printf("\nverdict: %v\n", res.Err())
	fmt.Println("\nwith the stale-signal completion (core.NewGCC), the same workloads")
	fmt.Println("pass every schedule — see TestGCCStaleSignalAblation and DESIGN.md.")
}
