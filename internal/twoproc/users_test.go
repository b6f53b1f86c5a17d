package twoproc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/memsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// cellLog records, from a run's event stream, the registrations written
// to C[side] and the nudge and release cells touched, in first-touch
// order.
type cellLog struct {
	regs  []string
	cells []string
	seen  map[string]bool
}

func (c *cellLog) Record(ev memsim.TraceEvent) {
	switch {
	case strings.HasPrefix(ev.Var, "L.C[") && ev.Kind == memsim.TraceWrite && ev.After != 0:
		c.regs = append(c.regs, fmt.Sprintf("p%d %s key %d", ev.Proc, ev.Var[2:], ev.After-1))
	case strings.HasPrefix(ev.Var, "L.nudge") || strings.HasPrefix(ev.Var, "L.release"):
		if !c.seen[ev.Var] {
			c.seen[ev.Var] = true
			c.cells = append(c.cells, ev.Var)
		}
	}
}

// manyUsers runs one Mutex played by six processes, three per side,
// over three rounds each: more players than a Mutex keeps inline. A
// test-and-set gate per side lets one process play a side at a time.
// It returns the run's registrations, cells and per-process RMRs.
func manyUsers(t *testing.T, model memsim.Model) string {
	const procs, rounds = 6, 3
	m := memsim.NewMachine(model, procs)
	defer m.Release()
	mu := New(m, "L")
	gate := [2]memsim.Var{
		m.NewVar("gate[0]", memsim.HomeGlobal, 0),
		m.NewVar("gate[1]", memsim.HomeGlobal, 0),
	}
	for i := 0; i < procs; i++ {
		side := i % 2
		m.AddProc("p", func(p *memsim.Proc) {
			for r := 0; r < rounds; r++ {
				for p.RMW(gate[side], func(Word) Word { return 1 }) != 0 {
					p.AwaitEq(gate[side], 0)
				}
				mu.Acquire(p, side)
				p.EnterCS()
				p.ExitCS()
				mu.Release(p, side)
				p.Write(gate[side], 0)
			}
		})
	}
	log := &cellLog{seen: map[string]bool{}}
	m.AttachSink(log)
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(7)})
	if err := res.Err(); err != nil {
		t.Fatalf("%v: %v", model, err)
	}
	if res.CSEntries != procs*rounds {
		t.Fatalf("%v: %d CS entries, want %d", model, res.CSEntries, procs*rounds)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model %v\n", model)
	for _, r := range log.regs {
		fmt.Fprintf(&b, "reg %s\n", r)
	}
	for _, c := range log.cells {
		fmt.Fprintf(&b, "cell %s\n", c)
	}
	for i, ps := range res.Procs {
		fmt.Fprintf(&b, "rmrs p%d %d\n", i, ps.RMRs)
	}
	return b.String()
}

// TestManyUsersGolden pins what a Mutex played by more processes than
// it keeps inline does: the registration keys it writes, the labels of
// the nudge and release cells it touches, and each process's RMRs, on
// CC and DSM. The golden was recorded with per-process state in
// N-long slices; regenerate with
// `go test ./internal/twoproc -run TestManyUsersGolden -update` only
// after a deliberate change to the algorithm.
func TestManyUsersGolden(t *testing.T) {
	got := manyUsers(t, memsim.CC) + manyUsers(t, memsim.DSM)
	path := filepath.Join("testdata", "many_users_golden.txt")
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
		t.Fatalf("many-user run differs from %s:\n--- got\n%s", path, got)
	}
}
