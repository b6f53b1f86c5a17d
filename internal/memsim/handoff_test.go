package memsim_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/core"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// gdsmMachine is a small G-DSM machine: n processes on DSM, each
// making entries passages through the lock.
func gdsmMachine(n, entries int) *memsim.Machine {
	m := memsim.NewMachine(memsim.DSM, n)
	alg := core.NewGDSM(m, phi.FetchAndIncrement{})
	for i := 0; i < n; i++ {
		m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
			for e := 0; e < entries; e++ {
				p.BeginEntrySection()
				alg.Acquire(p)
				p.EnterCS()
				p.ExitCS()
				alg.Release(p)
				p.EndExitSection()
			}
		})
	}
	return m
}

// TestHandoffGolden pins the engine's scheduling decisions: the
// (step, runnable, chosen) sequence of every scheduling point, as an
// Observed wrapper sees it, for each built-in scheduler and the explorer's chooser, on
// a small G-DSM machine. The golden was recorded with the original
// central-loop engine, so any change to how control passes between
// process goroutines must reproduce it exactly. Regenerate with
// `go test ./internal/memsim -run TestHandoffGolden -update` only after
// a deliberate change to scheduling semantics.
func TestHandoffGolden(t *testing.T) {
	scheds := []struct {
		name  string
		sched memsim.Scheduler
	}{
		{"random", memsim.NewRandom(7)},
		{"round-robin", memsim.RoundRobin{}},
		{"sticky", &memsim.Sticky{Quantum: 3}},
		{"chooser", memsim.NewChooser([]memsim.Preemption{{Step: 4, Proc: 1}, {Step: 30, Proc: 2}})},
	}
	var b strings.Builder
	for _, s := range scheds {
		fmt.Fprintf(&b, "# %s\n", s.name)
		res := gdsmMachine(3, 2).Run(memsim.RunConfig{Sched: memsim.Observed{
			Scheduler: s.sched,
			See: func(step int64, runnable []int, chosen int) {
				fmt.Fprintf(&b, "%d %v %d\n", step, runnable, chosen)
			},
		}})
		if err := res.Err(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&b, "steps=%d rmrs=%d\n", res.Steps, res.TotalRMRs())
	}
	checkGolden(t, "handoff_golden.txt", b.String())
}

// TestHandoffGoldenWide pins the scheduling decisions of a G-DSM
// machine with 70 processes, two entries each: wide enough that the
// runnable set spans two 64-bit words and most processes pass through
// Waiting, Recheck and Done. The full (step, runnable, chosen) stream
// is too long to check in, so the golden keeps, per scheduler, a
// SHA-256 of the stream every 512 steps (to localize a divergence) and
// at the end. It was recorded with the scan-per-step engine.
func TestHandoffGoldenWide(t *testing.T) {
	const n = 70
	scheds := []struct {
		name  string
		sched memsim.Scheduler
	}{
		{"random", memsim.NewRandom(7)},
		{"pct", memsim.NewPCT(7, 3, 4000)},
		{"adversary", memsim.NewAdversary(7, 65)},
		{"round-robin", memsim.RoundRobin{}},
	}
	var b strings.Builder
	for _, s := range scheds {
		fmt.Fprintf(&b, "# %s\n", s.name)
		h := sha256.New()
		res := gdsmMachine(n, 2).Run(memsim.RunConfig{Sched: memsim.Observed{
			Scheduler: s.sched,
			See: func(step int64, runnable []int, chosen int) {
				fmt.Fprintf(h, "%d %v %d\n", step, runnable, chosen)
				if (step+1)%512 == 0 {
					fmt.Fprintf(&b, "%d %x\n", step+1, h.Sum(nil)[:8])
				}
			},
		}})
		if err := res.Err(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&b, "steps=%d rmrs=%d sha256=%x\n", res.Steps, res.TotalRMRs(), h.Sum(nil))
	}
	checkGolden(t, "handoff_golden_wide.txt", b.String())
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update, and reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output diverges from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
