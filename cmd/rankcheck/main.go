// Command rankcheck empirically verifies the rank (paper, Sec. 2) and
// self-resettability (Sec. 4) of every fetch-and-φ primitive in the
// library, by checking the definition's conditions (i)–(iii) over many
// random interleavings of the primitives' input schedules.
//
// Usage:
//
//	rankcheck [-n procs] [-max rank] [-trials T] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"fetchphi/internal/phi"
)

func main() {
	var (
		n      = flag.Int("n", 8, "number of processes in the simulated system")
		maxR   = flag.Int("max", 64, "cap when probing for unbounded rank")
		trials = flag.Int("trials", 5000, "random interleavings per rank probe")
		seed   = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *n < 1 || *maxR < 1 || *trials < 1 {
		fmt.Fprintln(os.Stderr, "rankcheck: -n, -max and -trials must be positive")
		os.Exit(2)
	}

	fmt.Printf("%-28s %-9s %-10s %-16s %s\n", "primitive", "claimed", "estimated", "self-resettable", "notes")
	// Every primitive's checks are independent and seeded, so they run
	// on all cores and print in phi.All order.
	lines := phi.Survey(phi.All(*n), 0, func(prim phi.Primitive) string {
		claimed := "∞"
		if prim.Rank() != phi.RankInfinite {
			claimed = fmt.Sprintf("%d", prim.Rank())
		}
		est := phi.EstimateRank(prim, *n, *maxR, *trials, *seed)
		estStr := fmt.Sprintf("%d", est)
		if est == *maxR {
			estStr = "≥" + estStr
		}

		srStr, note := "no", ""
		if sr, ok := prim.(phi.SelfResettable); ok {
			if err := phi.CheckSelfReset(sr, *n, 400, 200, *seed); err != nil {
				srStr, note = "CLAIMED", err.Error()
			} else {
				srStr = "yes (verified)"
			}
		}
		// For finite claimed ranks, show the violation that refutes
		// rank+1 (evidence the claim is tight).
		if prim.Rank() != phi.RankInfinite {
			if v := phi.CheckRank(prim, *n, prim.Rank()+1, *trials, *seed); v != nil {
				note = fmt.Sprintf("rank %d refuted: condition (%s)", prim.Rank()+1,
					[...]string{"i", "ii", "iii"}[v.Condition-1])
			} else {
				note = fmt.Sprintf("WARNING: rank %d not refuted", prim.Rank()+1)
			}
		}
		return fmt.Sprintf("%-28s %-9s %-10s %-16s %s", prim.Name(), claimed, estStr, srStr, note)
	})
	for _, line := range lines {
		fmt.Println(line)
	}
}
