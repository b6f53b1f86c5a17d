package twoproc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fetchphi/internal/memsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// eventList is an EventSink that keeps a run's events and, when the
// run ends, hands each to check with its variable's label.
type eventList struct {
	events []memsim.TraceEvent
	check  func(ev memsim.TraceEvent, label string)
}

func (l *eventList) Record(ev memsim.TraceEvent) { l.events = append(l.events, ev) }

func (l *eventList) EndRun(labels memsim.Labeler) {
	for _, ev := range l.events {
		l.check(ev, labels.Label(ev.Var))
	}
}

// cellLog records, from a run's event stream, the registrations written
// to C[side] and the nudge and release cells touched, in first-touch
// order.
type cellLog struct {
	regs  []string
	cells []string
	seen  map[string]bool
}

func (c *cellLog) add(ev memsim.TraceEvent, label string) {
	switch {
	case strings.HasPrefix(label, "L.C[") && ev.Kind == memsim.TraceWrite && ev.After != 0:
		c.regs = append(c.regs, fmt.Sprintf("p%d %s key %d", ev.Proc, label[2:], ev.After-1))
	case strings.HasPrefix(label, "L.nudge") || strings.HasPrefix(label, "L.release"):
		if !c.seen[label] {
			c.seen[label] = true
			c.cells = append(c.cells, label)
		}
	}
}

// addPlayers adds processes 0..players-1 to m, each playing mu for
// rounds rounds, even ids on side 0 and odd ids on side 1. A
// test-and-set gate per side lets one process play a side at a time.
// after, if not nil, runs after each Release, before the gate opens.
func addPlayers(m *memsim.Machine, mu *Mutex, players, rounds int, after func(*memsim.Proc)) {
	gate := [2]memsim.Var{
		m.NewVar("gate[0]", memsim.HomeGlobal, 0),
		m.NewVar("gate[1]", memsim.HomeGlobal, 0),
	}
	for i := 0; i < players; i++ {
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
				if after != nil {
					after(p)
				}
				p.Write(gate[side], 0)
			}
		})
	}
}

// manyUsers runs one Mutex played by six processes, three per side,
// over three rounds each: more players than a Mutex keeps inline. It
// returns the run's registrations, cells and per-process RMRs.
func manyUsers(t *testing.T, model memsim.Model) string {
	const procs, rounds = 6, 3
	m := memsim.NewMachine(model, procs)
	defer m.Release()
	mu := New(m, memsim.NamePrefix(nil, "L"))
	addPlayers(m, mu, procs, rounds, nil)
	log := &cellLog{seen: map[string]bool{}}
	m.AttachSink(&eventList{check: log.add})
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

// handoffLog checks, from a run's event stream, that every nudge and
// release write lands on the cell of the registration the writer read
// from C[1−side] just before, and collects, for each cell, the
// processes that read it and whether any read was remote.
type handoffLog struct {
	t      *testing.T
	lastC  map[int]Word      // per process: the last registration read from C[·]
	target map[string]Word   // cell label → registration key written to
	reads  map[string][]bool // cell label → remote flag of each read
	reader map[string]int    // cell label → a process that read it
	wrong  int
}

func (h *handoffLog) add(ev memsim.TraceEvent, label string) {
	cell := strings.HasPrefix(label, "L.nudge[") || strings.HasPrefix(label, "L.release[")
	switch {
	case strings.HasPrefix(label, "L.C[") && ev.Kind == memsim.TraceRead:
		h.lastC[ev.Proc] = ev.After
	case cell && ev.Kind == memsim.TraceWrite:
		rival := h.lastC[ev.Proc]
		family := label[:strings.IndexByte(label, '[')]
		if want := fmt.Sprintf("%s[%d]", family, rival-1); rival == 0 || label != want {
			if h.wrong++; h.wrong <= 5 {
				h.t.Errorf("p%d wrote %s after reading registration %d, want %s", ev.Proc, label, rival, want)
			}
			return
		}
		h.target[label] = rival - 1
	case cell && ev.Kind == memsim.TraceRead:
		h.reads[label] = append(h.reads[label], ev.Remote)
		if r, ok := h.reader[label]; ok && r != ev.Proc {
			h.t.Errorf("%s read by p%d and p%d", label, r, ev.Proc)
		}
		h.reader[label] = ev.Proc
	}
}

// TestCellLookupTiers checks that Acquire and Release find a
// rival's cells by its registration key in both tiers of a player's
// record: the first inlineUsers players and inlineRounds rounds in
// place, and the players and rounds past them. Each player plays more
// rounds than a record keeps in place, and at N=70 more players play
// than a Mutex keeps in place. Every nudge and release write must land
// on the cell labelled with the key the writer read, and on DSM that
// cell must be homed at the key's process: the only process that reads
// it, which reads each of its cells after every round, reads it
// locally.
func TestCellLookupTiers(t *testing.T) {
	const rounds = inlineRounds + 2
	for _, n := range []int{2, 3, 70} {
		players := min(n, 2*inlineUsers)
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			m := memsim.NewMachine(model, n)
			mu := New(m, memsim.NamePrefix(nil, "L"))
			addPlayers(m, mu, players, rounds, func(p *memsim.Proc) {
				// The round just played, found in the record by its
				// key; a cell nobody touched yet is allocated here, so
				// a rival's late stamp must find this one.
				key := mu.user(p.ID()).current
				p.Read(mu.nudgeOf(key))
				p.Read(mu.releaseOf(key))
			})
			h := &handoffLog{t: t, lastC: map[int]Word{}, target: map[string]Word{},
				reads: map[string][]bool{}, reader: map[string]int{}}
			m.AttachSink(&eventList{check: h.add})
			res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(int64(n))})
			if err := res.Err(); err != nil {
				t.Fatalf("N=%d %v: %v", n, model, err)
			}
			if res.CSEntries != int64(players*rounds) {
				t.Fatalf("N=%d %v: %d CS entries, want %d", n, model, res.CSEntries, players*rounds)
			}
			laterRounds, morePlayers := 0, 0
			for label, key := range h.target {
				owner := int(key % Word(n))
				if r, ok := h.reader[label]; !ok || r != owner {
					t.Errorf("N=%d %v: %s (key %d) read by p%d, want its owner p%d", n, model, label, key, r, owner)
				}
				if model == memsim.DSM && slices.Contains(h.reads[label], true) {
					t.Errorf("N=%d %v: p%d read %s (key %d) remotely: not homed at %d", n, model, owner, label, key, owner)
				}
				if key/Word(n) >= inlineRounds {
					laterRounds++
				}
				if owner < len(mu.more) && mu.more[owner] != nil {
					morePlayers++
				}
			}
			m.Release()
			if laterRounds == 0 {
				t.Errorf("N=%d %v: no write reached a round past the inline ones", n, model)
			}
			if players > inlineUsers && morePlayers == 0 {
				t.Errorf("N=%d %v: no write reached a player past the inline ones", n, model)
			}
			t.Logf("N=%d %v: %d cells written, %d in rounds and %d of players past the inline ones",
				n, model, len(h.target), laterRounds, morePlayers)
		}
	}
}

// preferSched runs the process its function names whenever that one is
// runnable, and the lowest runnable one otherwise.
type preferSched func() int

func (s preferSched) Pick(_ int64, runnable []int, _ int) int {
	if want := s(); slices.Contains(runnable, want) {
		return want
	}
	return runnable[0]
}

// TestRivalTouchesCellsFirst drives the schedule in which a rival
// stamps both of a registration's cells before their owner first asks
// for them: p0 registers while p1 holds the lock, p1's Release stamps
// p0's release cell, and p1's next Acquire nudges p0, all before p0
// reads the tie-breaker. p0 must then wait on the very variables p1
// allocated: labelled by p0's key, kept in p0's record, and on DSM
// homed at p0, so p0 reads them locally and p1 writes them remotely.
func TestRivalTouchesCellsFirst(t *testing.T) {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		m := memsim.NewMachine(model, 2)
		mu := New(m, memsim.NamePrefix(nil, "L"))
		// 0: p1 takes the lock; 1: p0 writes C[0]; 2: p1 runs first.
		stage := 0
		m.AddProc("p0", func(p *memsim.Proc) {
			mu.Acquire(p, 0)
			p.EnterCS()
			p.ExitCS()
			mu.Release(p, 0)
		})
		m.AddProc("p1", func(p *memsim.Proc) {
			for r := 0; r < 2; r++ {
				mu.Acquire(p, 1)
				if r == 0 {
					stage = 1
				}
				p.EnterCS()
				p.ExitCS()
				mu.Release(p, 1)
			}
		})
		sched := preferSched(func() int {
			if stage == 1 && m.Value(mu.c[0]) != 0 {
				stage = 2
			}
			if stage == 1 {
				return 0
			}
			return 1
		})
		key := Word(0) // p0's only registration: round 0
		nudge, release := fmt.Sprintf("L.nudge[%d]", key), fmt.Sprintf("L.release[%d]", key)
		stamped := map[string]memsim.Var{}
		awaited := map[string]bool{}
		m.AttachSink(&eventList{check: func(ev memsim.TraceEvent, label string) {
			if label != nudge && label != release {
				return
			}
			switch {
			case ev.Kind == memsim.TraceWrite:
				if _, owner := awaited[label]; owner {
					return // a later stamp
				}
				if ev.Proc != 1 {
					t.Errorf("%v: %s written by p%d, want the rival p1", model, label, ev.Proc)
				}
				if model == memsim.DSM && !ev.Remote {
					t.Errorf("%v: p1 wrote %s locally: not homed at p0", model, label)
				}
				stamped[label] = ev.Var
			case ev.Proc == 0:
				v, ok := stamped[label]
				if !ok {
					t.Errorf("%v: p0 read %s before p1 stamped it", model, label)
				} else if v != ev.Var {
					t.Errorf("%v: p0 read %s as variable #%d, but p1 stamped #%d", model, label, ev.Var.Index(), v.Index())
				}
				if model == memsim.DSM && ev.Remote {
					t.Errorf("%v: p0 read its own %s remotely", model, label)
				}
				awaited[label] = true
			}
		}})
		res := m.Run(memsim.RunConfig{Sched: sched})
		if err := res.Err(); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.CSEntries != 3 {
			t.Fatalf("%v: %d CS entries, want 3", model, res.CSEntries)
		}
		if !awaited[nudge] || !awaited[release] {
			t.Errorf("%v: p0 waited on %v of its cells, want both: the schedule lost its contention", model, awaited)
		}
		slots := mu.slotsOf(key)
		for label, slot := range map[string]*memsim.LazyVar{nudge: &slots.nudge, release: &slots.release} {
			if v, _ := slot.Get(); v != stamped[label] {
				t.Errorf("%v: p0's record holds #%d for %s, p1 stamped #%d", model, v.Index(), label, stamped[label].Index())
			} else if got := m.Label(v); got != label {
				t.Errorf("%v: cell labelled %q, want %q", model, got, label)
			}
		}
		m.Release()
	}
}

// BenchmarkMutexRounds measures the acquisition path on its own: one
// Mutex on a 256-process machine, played by 8 processes for 64 rounds
// each, so most registrations are past a record's inline rounds and
// half the players past a Mutex's inline users. ns/acquisition and
// B/acquisition cover the machine's build, run and release.
func BenchmarkMutexRounds(b *testing.B) {
	const n, players, rounds = 256, 2 * inlineUsers, 64
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		b.Run(model.String(), func(b *testing.B) {
			var cs memsim.Carriers
			defer cs.Close()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			bytes := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := memsim.NewMachine(model, n)
				addPlayers(m, New(m, memsim.NamePrefix(nil, "L")), players, rounds, nil)
				if err := m.RunOn(&cs, memsim.RunConfig{Sched: memsim.NewRandom(int64(i))}).Err(); err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			acqs := float64(b.N) * players * rounds
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/acqs, "ns/acquisition")
			b.ReportMetric(float64(ms.TotalAlloc-bytes)/acqs, "B/acquisition")
		})
	}
}
