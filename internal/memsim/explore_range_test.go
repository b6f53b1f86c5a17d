package memsim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// rangeBuild is a small always-passing two-process workload with real
// contention (both processes CAS-loop on one variable), so the
// explorer generates non-trivial waves.
func rangeBuild() *Machine {
	m := NewMachine(CC, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	for p := 0; p < 2; p++ {
		m.AddProc("p", func(pr *Proc) {
			for i := 0; i < 2; i++ {
				pr.Read(v)
				pr.Write(v, Word(i))
			}
		})
	}
	return m
}

// TestRunScheduleRangeReassemblesRun drives the exported wave-range
// API exactly like an external coordinator would — seed with RootWave,
// execute each wave in arbitrary-sized contiguous ranges, concatenate
// Children by index — and checks the reassembled exploration matches
// Explorer.Run bit for bit (runs per depth, exhaustion).
func TestRunScheduleRangeReassemblesRun(t *testing.T) {
	ref := (&Explorer{Build: rangeBuild, MaxPreemptions: 2, MaxSteps: 5000}).Run()
	if ref.Err != nil || !ref.Exhausted {
		t.Fatalf("reference run: %+v", ref)
	}

	e := &Explorer{Build: rangeBuild, MaxPreemptions: 2, MaxSteps: 5000}
	wave := RootWave()
	var depthRuns []int
	for depth := 0; len(wave) > 0; depth++ {
		// Split the wave into ranges of 3 and execute them out of
		// order — the merge is by index, so order must not matter.
		outs := make([]ScheduleOutcome, len(wave))
		var ranges [][2]int
		for lo := 0; lo < len(wave); lo += 3 {
			hi := lo + 3
			if hi > len(wave) {
				hi = len(wave)
			}
			ranges = append(ranges, [2]int{lo, hi})
		}
		for i := len(ranges) - 1; i >= 0; i-- {
			lo, hi := ranges[i][0], ranges[i][1]
			copy(outs[lo:hi], e.RunScheduleRange(wave[lo:hi]))
		}
		depthRuns = append(depthRuns, len(wave))
		var next [][]Preemption
		for i := range outs {
			if outs[i].Err != nil {
				t.Fatalf("unexpected failure at depth %d index %d: %v", depth, i, outs[i].Err)
			}
			next = append(next, outs[i].Children...)
		}
		wave = next
	}
	if !reflect.DeepEqual(depthRuns, ref.DepthRuns) {
		t.Fatalf("range-driven depth runs %v, want %v", depthRuns, ref.DepthRuns)
	}
}

// TestResolvedPreemptions pins the MaxPreemptions encoding the
// external drivers depend on.
func TestResolvedPreemptions(t *testing.T) {
	for _, tc := range []struct{ enc, want int }{
		{ZeroPreemptions, 0},
		{0, DefaultPreemptions},
		{3, 3},
	} {
		e := &Explorer{MaxPreemptions: tc.enc}
		if got := e.ResolvedPreemptions(); got != tc.want {
			t.Errorf("ResolvedPreemptions(%d) = %d, want %d", tc.enc, got, tc.want)
		}
	}
}

// TestParseMemoryModelRoundTrip pins the wire spelling of every model.
func TestParseMemoryModelRoundTrip(t *testing.T) {
	for _, m := range []Model{CC, DSM, CCUpdate} {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("PRAM"); err == nil {
		t.Fatal("ParseModel accepted an unknown model")
	}
}

// FuzzParseModel: whatever string reaches the decoder (an artifact, a
// checkpoint, a fleet message), ParseModel returns an error or a model
// that spells the string back exactly, and never panics.
func FuzzParseModel(f *testing.F) {
	for _, s := range []string{"CC", "DSM", "CC-update", "PRAM", "Model(3)", "cc", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if err == nil && m.String() != s {
			t.Fatalf("ParseModel(%q) = %v, which spells %q", s, m, m.String())
		}
	})
}

// chunkBuild is a two-process workload over more variables than one
// storage chunk holds, some of them allocated mid-run through a Dict
// and one named through a Prefix. Process 1 first awaits process 0's
// flag, so runs leave watchers behind as well as values, cached copies
// and RMRs: everything recycling must wipe.
func chunkBuild() *Machine {
	m := NewMachine(CC, 2)
	arr := m.NewArray("arr", chunkVars+3, HomeGlobal, 0)
	d := m.NewDict("d", HomeGlobal, 0)
	owner := KeyedPrefix("owner", 7)
	flag := m.NewVarIn(&owner, ".flag", HomeGlobal, 0)
	for p := 0; p < 2; p++ {
		m.AddProc("p", func(pr *Proc) {
			if pr.ID() == 1 {
				pr.AwaitTrue(flag)
			}
			for i := 0; i < 2; i++ {
				v := arr[1+int(pr.Read(arr[0]))%(len(arr)-1)]
				pr.Write(arr[0], pr.Read(v)+1)
				pr.Write(d.At(pr.Read(arr[0])), 1)
			}
			if pr.ID() == 0 {
				pr.Write(flag, 1)
			}
		})
	}
	return m
}

// TestRunScheduleRangeRepeatsOverRecycledStorage runs every wave of an
// exploration twice on the same explorer. The second pass builds its
// machines from chunks the first pass recycled, and must report the
// same outcomes, sequentially and sharded.
func TestRunScheduleRangeRepeatsOverRecycledStorage(t *testing.T) {
	for _, workers := range []int{1, 3} {
		e := &Explorer{Build: chunkBuild, MaxPreemptions: 2, MaxSteps: 5000, Workers: workers}
		wave := RootWave()
		for depth := 0; len(wave) > 0; depth++ {
			first := e.RunScheduleRange(wave)
			if second := e.RunScheduleRange(wave); !reflect.DeepEqual(first, second) {
				t.Fatalf("workers=%d depth %d: outcomes differ on the second pass", workers, depth)
			}
			var next [][]Preemption
			for i := range first {
				if first[i].Err != nil {
					t.Fatalf("workers=%d depth %d index %d: %v", workers, depth, i, first[i].Err)
				}
				next = append(next, first[i].Children...)
			}
			wave = next
		}
	}
}

// TestRecycleZeroesStorage checks that Release hands every chunk back
// zeroed (value, watchers, sharers, RMRs, name) and leaves the machine
// with no variables, so a stale handle panics instead of reading a
// slot another machine now owns.
func TestRecycleZeroesStorage(t *testing.T) {
	m := chunkBuild()
	flag := Var{idx: m.nvars}
	if err := m.Run(RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	vv := m.varAt(flag)
	if vv.value == 0 || vv.watchers == nil || vv.sharers.lo == 0 || vv.rmrs == 0 {
		t.Fatalf("run left no state behind on the flag: %+v", *vv)
	}
	if len(m.chunks) < 2 {
		t.Fatalf("%d chunks, want several", len(m.chunks))
	}
	chunks := slices.Clone(m.chunks)
	m.Release()
	for c, chunk := range chunks {
		for i := range chunk {
			if !reflect.ValueOf(chunk[i]).IsZero() {
				t.Fatalf("chunk %d slot %d not zeroed: %+v", c, i, chunk[i])
			}
		}
	}
	if len(m.chunks) != 0 || m.nvars != 0 {
		t.Fatalf("machine keeps %d chunks and %d variables after Release", len(m.chunks), m.nvars)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale handle did not panic after Release")
		}
	}()
	m.Value(flag)
}

// TestReleasedChunksOutliveCollections checks that the next machine
// built after a Release takes the released chunks even when garbage
// collections run in between, so what a run allocates does not depend
// on when the collector ran (a sync.Pool would have dropped them).
func TestReleasedChunksOutliveCollections(t *testing.T) {
	m := chunkBuild()
	released := slices.Clone(m.chunks)
	m.Release()
	runtime.GC()
	runtime.GC()
	again := chunkBuild()
	defer again.Release()
	if len(again.chunks) != len(released) {
		t.Fatalf("%d chunks, want %d", len(again.chunks), len(released))
	}
	for c, chunk := range again.chunks {
		if !slices.Contains(released, chunk) {
			t.Fatalf("chunk %d is freshly allocated, not one Release handed back", c)
		}
	}
}
