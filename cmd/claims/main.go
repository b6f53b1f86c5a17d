// Command claims is the claims-conformance driver: it loads a bench
// directory's fetchphi.bench/v1 artifacts, evaluates the paper-claims
// registry over them, and reports one verdict per claim.
//
// Usage:
//
//	claims [-bench dir] [-out CLAIMS.json] [-html report.html]
//	       [-baseline CLAIMS.json] [-markdown] [-v]
//
// With no output flags it prints the verdict table and exits 0 only
// if no claim is contradicted. -out writes the fetchphi.claims/v1
// artifact, -html the self-contained report (figures with the fitted
// growth curves overlaid on the measured series). -markdown prints
// the EXPERIMENTS.md summary table instead (print-only: file outputs
// are skipped so the docs pipeline can redirect stdout).
//
// -baseline gates against a prior claims artifact: any claim it
// records as reproduced that this evaluation does not reproduce is a
// flip, named on stderr, exit 1. Inconclusive claims (missing bench
// artifacts) are warnings, not failures — unless the baseline
// reproduced them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fetchphi/internal/claims"
	"fetchphi/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses argv, executes, and returns
// the process exit code (0 ok, 1 contradiction/flip, 2 usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("claims", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "bench/current", "directory of fetchphi.bench/v1 artifacts to evaluate")
		out      = fs.String("out", "", "write the fetchphi.claims/v1 artifact here (empty = don't)")
		htmlOut  = fs.String("html", "", "write the self-contained HTML report here (empty = don't)")
		baseline = fs.String("baseline", "", "prior claims artifact to gate against (empty = no gate)")
		markdown = fs.Bool("markdown", false, "print the EXPERIMENTS.md summary table and skip file outputs")
		verbose  = fs.Bool("v", false, "print every predicate detail line")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "claims: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	b, err := claims.LoadBenchDir(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "claims: %v\n", err)
		return 2
	}
	art := claims.Evaluate(b)
	art.CreatedBy = "cmd/claims"
	art.Commit = obs.GitCommit()
	art.BenchDir = *bench

	if *markdown {
		fmt.Fprint(stdout, claims.Markdown(art))
	} else {
		for _, c := range art.Claims {
			fmt.Fprintf(stdout, "%-14s %-26s %s\n", c.Verdict, c.ID, c.Measured)
			if *verbose {
				for _, d := range c.Details {
					fmt.Fprintf(stdout, "    %s\n", d)
				}
			}
		}
	}

	failed := false
	for _, c := range art.Claims {
		switch c.Verdict {
		case claims.NotReproduced:
			fmt.Fprintf(stderr, "claims: %s (%s) NOT reproduced: %s\n", c.ID, c.Title, c.Measured)
			for _, d := range c.Details {
				if strings.HasPrefix(d, "FAIL") {
					fmt.Fprintf(stderr, "claims:   %s\n", d)
				}
			}
			failed = true
		case claims.Inconclusive:
			fmt.Fprintf(stderr, "claims: warning: %s inconclusive: %s\n", c.ID, c.Measured)
		}
	}

	if !*markdown {
		if *out != "" {
			if err := art.WriteFile(*out); err != nil {
				fmt.Fprintf(stderr, "claims: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "%d claims -> %s\n", len(art.Claims), *out)
		}
		if *htmlOut != "" {
			if err := claims.WriteHTML(art, *htmlOut); err != nil {
				fmt.Fprintf(stderr, "claims: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "report -> %s\n", *htmlOut)
		}
	}

	if *baseline != "" {
		base, err := claims.ReadArtifact(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "claims: baseline: %v\n", err)
			return 2
		}
		if flips := claims.Compare(base, art); len(flips) > 0 {
			fmt.Fprintf(stderr, "\nclaims gate FAILED (%d):\n", len(flips))
			for _, f := range flips {
				fmt.Fprintf(stderr, "  %s\n", f)
			}
			failed = true
		} else if !failed {
			fmt.Fprintln(stdout, "claims gate passed")
		}
	}

	if failed {
		return 1
	}
	return 0
}
