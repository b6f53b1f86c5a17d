// customalgo: bring your own algorithm. This example implements
// Dekker's classic two-process mutual exclusion algorithm against the
// library's simulated-machine API, then puts it through the same
// verification and measurement pipeline the built-in algorithms use:
//
//  1. randomized stress with full safety checking,
//
//  2. exhaustive preemption-bounded model checking,
//
//  3. RMR accounting on CC and DSM,
//
//  4. spin-locality analysis (Dekker spins on shared variables, so it
//     is NOT a local-spin algorithm on DSM — compare the two-process
//     component in internal/twoproc, which is).
//
//     go run ./examples/customalgo
package main

import (
	"fmt"
	"log"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// dekker is Dekker's algorithm: two intent flags and a turn variable;
// the process whose turn it is insists, the other backs off.
type dekker struct {
	flag [2]memsim.Var
	turn memsim.Var
}

func newDekker(m *memsim.Machine) harness.Algorithm {
	return &dekker{
		flag: [2]memsim.Var{
			m.NewVar("dekker.flag[0]", 0, 0),
			m.NewVar("dekker.flag[1]", 1, 0),
		},
		turn: m.NewVar("dekker.turn", memsim.HomeGlobal, 0),
	}
}

func (d *dekker) Name() string { return "dekker" }

// Acquire implements the entry protocol for process p (id 0 or 1).
func (d *dekker) Acquire(p *memsim.Proc) {
	me := p.ID()
	other := 1 - me
	p.Write(d.flag[me], 1)
	for p.Read(d.flag[other]) != 0 {
		if p.Read(d.turn) != memsim.Word(me) {
			// Not my turn: back off and wait for it.
			p.Write(d.flag[me], 0)
			p.AwaitEq(d.turn, memsim.Word(me))
			p.Write(d.flag[me], 1)
		} else {
			// My turn: the rival will back off; wait it out.
			p.Await(func(read func(memsim.Var) memsim.Word) bool {
				return read(d.flag[other]) == 0
			}, d.flag[other])
		}
	}
}

// Release implements the exit protocol.
func (d *dekker) Release(p *memsim.Proc) {
	me := p.ID()
	p.Write(d.turn, memsim.Word(1-me))
	p.Write(d.flag[me], 0)
}

func main() {
	builder := harness.Builder(newDekker)

	fmt.Println("1. randomized stress (mutual exclusion, deadlock, completion):")
	if err := harness.Verify(builder, 2, 10, 50); err != nil {
		log.Fatalf("   FAILED: %v", err)
	}
	fmt.Println("   ok: 50 seeds × 2 models")

	fmt.Println("\n2. exhaustive model checking (≤3 preemptions):")
	if _, err := harness.CheckSharded(builder, 2, 2, harness.ExploreOptions{Preemptions: 3, MaxRuns: 2_000_000}); err != nil {
		log.Fatalf("   FAILED: %v", err)
	}
	fmt.Println("   ok: every explored schedule is safe and live")

	fmt.Println("\n3. RMR cost per critical-section entry:")
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		met, err := harness.Run(builder, harness.Workload{
			Model: model, N: 2, Entries: 20, CSOps: 1, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %-9v mean %.1f, worst %d, non-local spin reads %d\n",
			model, met.MeanRMR, met.WorstRMR, met.NonLocalSpins)
	}

	fmt.Println("\n4. verdict: correct, but NOT local-spin on DSM — its waits read")
	fmt.Println("   the rival's flag and the shared turn. The repository's")
	fmt.Println("   internal/twoproc plays the same role with zero non-local spins.")
}
