// Command seeds tallies, for every paper claim, how many seed families
// reproduce it, and gates the tally against a recorded one.
//
// Usage:
//
//	seeds [-baseline SEEDS.json] [-out SEEDS.json] CLAIMS.json...
//
// Each argument is the fetchphi.claims/v1 artifact of one seed
// family's sweep (report -quick -flight 0 -seed S). The tally counts,
// per claim, the families whose verdict is reproduced; -out writes it
// as a fetchphi.seeds/v1 artifact. -baseline gates against a recorded
// tally: a claim reproduced in fewer families than recorded, a claim
// missing from the tally, or a different number of families fails,
// named on stderr, exit 1. Usage and read errors exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"fetchphi/internal/claims"
	"fetchphi/internal/obs"
)

// schema identifies the tally's artifact format.
const schema = "fetchphi.seeds/v1"

// tally is the fetchphi.seeds/v1 artifact.
type tally struct {
	Schema string `json:"schema"`
	// Families is the number of seed families tallied.
	Families int `json:"families"`
	// Reproduced maps each claim id to the number of families that
	// reproduce it.
	Reproduced map[string]int `json:"reproduced"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses argv, executes, and returns
// the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seeds", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline = fs.String("baseline", "", "recorded tally to gate against (empty = no gate)")
		out      = fs.String("out", "", "write the tally here (empty = don't)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "seeds: no claims artifacts given")
		return 2
	}

	cur := tally{Schema: schema, Families: fs.NArg(), Reproduced: make(map[string]int)}
	for _, path := range fs.Args() {
		art, err := claims.ReadArtifact(path)
		if err != nil {
			fmt.Fprintf(stderr, "seeds: %v\n", err)
			return 2
		}
		for _, c := range art.Claims {
			if _, ok := cur.Reproduced[c.ID]; !ok {
				cur.Reproduced[c.ID] = 0
			}
			if c.Verdict == claims.Reproduced {
				cur.Reproduced[c.ID]++
			}
		}
	}
	ids := make([]string, 0, len(cur.Reproduced))
	for id := range cur.Reproduced {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(stdout, "%-20s reproduced in %d/%d seed families\n", id, cur.Reproduced[id], cur.Families)
	}
	if *out != "" {
		if err := obs.WriteJSON(*out, cur); err != nil {
			fmt.Fprintf(stderr, "seeds: %v\n", err)
			return 2
		}
	}
	if *baseline == "" {
		return 0
	}

	base, err := obs.ReadJSON(*baseline, schema, func(t *tally) string { return t.Schema })
	if err != nil {
		fmt.Fprintf(stderr, "seeds: baseline: %v\n", err)
		return 2
	}
	var fails []string
	if base.Families != cur.Families {
		fails = append(fails, fmt.Sprintf("tallied %d seed families, the baseline %d", cur.Families, base.Families))
	}
	baseIDs := make([]string, 0, len(base.Reproduced))
	for id := range base.Reproduced {
		baseIDs = append(baseIDs, id)
	}
	sort.Strings(baseIDs)
	for _, id := range baseIDs {
		switch n, ok := cur.Reproduced[id]; {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s: in the baseline but not evaluated", id))
		case n < base.Reproduced[id]:
			fails = append(fails, fmt.Sprintf("%s: reproduced in %d seed families, down from %d", id, n, base.Reproduced[id]))
		}
	}
	if len(fails) > 0 {
		fmt.Fprintf(stderr, "seeds gate FAILED (%d):\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(stderr, "  %s\n", f)
		}
		return 1
	}
	fmt.Fprintln(stdout, "seeds gate passed")
	return 0
}
