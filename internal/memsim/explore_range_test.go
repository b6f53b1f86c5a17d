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
// execute each wave in arbitrary-sized contiguous ranges, merge the
// outcomes by index — and checks the reassembled exploration matches
// Explorer.Run bit for bit (runs per depth, exhaustion).
func TestRunScheduleRangeReassemblesRun(t *testing.T) {
	ref := (&Explorer{Build: rangeBuild, MaxPreemptions: 2, MaxSteps: 5000}).Run()
	if ref.Err != nil || !ref.Exhausted {
		t.Fatalf("reference run: %+v", ref)
	}

	e := &Explorer{Build: rangeBuild, MaxPreemptions: 2, MaxSteps: 5000}
	wave := RootWave()
	var depthRuns []int
	for wave.Len > 0 {
		// Split the wave into ranges of 3 and execute them out of
		// order — the merge is by index, so order must not matter.
		outs := make([]ScheduleOutcome, wave.Len)
		for lo := (wave.Len - 1) / 3 * 3; lo >= 0; lo -= 3 {
			hi := min(lo+3, wave.Len)
			copy(outs[lo:hi], rangeOutcomes(t, e, wave.Range(lo, hi)))
		}
		depthRuns = append(depthRuns, wave.Len)
		wave = nextWave(wave, outs)
	}
	if !reflect.DeepEqual(depthRuns, ref.DepthRuns) {
		t.Fatalf("range-driven depth runs %v, want %v", depthRuns, ref.DepthRuns)
	}
}

// TestWaveLayout pins the flat wave: schedule i is the Depth
// preemptions at Slab[i*Depth:], capped so an append cannot reach its
// neighbour; a range shares the slab; the root wave's one schedule is
// nil; and nextWave lays each parent's children out in order, each its
// parent plus the preemption it appends.
func TestWaveLayout(t *testing.T) {
	root := RootWave()
	if root.Depth != 0 || root.Len != 1 || root.Schedule(0) != nil {
		t.Fatalf("root wave %+v, schedule %#v", root, root.Schedule(0))
	}
	p := func(step int64, proc int) Preemption { return Preemption{Step: step, Proc: proc} }
	w1 := nextWave(root, []ScheduleOutcome{{Children: []Preemption{p(1, 1), p(4, 0)}}})
	want1 := Wave{Depth: 1, Len: 2, Slab: []Preemption{p(1, 1), p(4, 0)}}
	if !reflect.DeepEqual(w1, want1) {
		t.Fatalf("depth-1 wave %+v, want %+v", w1, want1)
	}
	w2 := nextWave(w1, []ScheduleOutcome{{Children: []Preemption{p(2, 0), p(3, 0)}}, {}})
	want2 := Wave{Depth: 2, Len: 2, Slab: []Preemption{p(1, 1), p(2, 0), p(1, 1), p(3, 0)}}
	if !reflect.DeepEqual(w2, want2) {
		t.Fatalf("depth-2 wave %+v, want %+v", w2, want2)
	}
	s := w2.Schedule(0)
	if !reflect.DeepEqual(s, []Preemption{p(1, 1), p(2, 0)}) || cap(s) != 2 {
		t.Fatalf("schedule 0 = %v (cap %d)", s, cap(s))
	}
	_ = append(s, p(9, 9))
	if w2.Schedule(1)[0] != p(1, 1) {
		t.Fatal("appending to schedule 0 wrote into schedule 1")
	}
	r := w2.Range(1, 2)
	if r.Len != 1 || r.Depth != 2 || &r.Slab[0] != &w2.Slab[2] {
		t.Fatalf("range [1,2) = %+v, want schedule 1 on the same slab", r)
	}
	if empty := nextWave(w2, []ScheduleOutcome{{}, {}}); empty.Len != 0 || empty.Depth != 3 || empty.Slab != nil {
		t.Fatalf("a wave without children built %+v", empty)
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
	owner := KeyedPrefix(nil, "owner", 7)
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
		for depth := 0; wave.Len > 0; depth++ {
			first := rangeOutcomes(t, e, wave)
			if second := rangeOutcomes(t, e, wave); !reflect.DeepEqual(first, second) {
				t.Fatalf("workers=%d depth %d: outcomes differ on the second pass", workers, depth)
			}
			wave = nextWave(wave, first)
		}
	}
}

// TestRecycleZeroesStorage checks that Release hands every chunk back
// zeroed (value, sharers, RMRs, name) with each watch list emptied but
// kept for the slot's next variable, and leaves the machine with no
// variables, so a stale handle panics instead of reading a slot another
// machine now owns.
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
	if cap(vv.watchers) == 0 {
		t.Fatal("Release dropped the flag's watch list storage")
	}
	for c, chunk := range chunks {
		for i := range chunk {
			slot := chunk[i]
			if len(slot.watchers) != 0 {
				t.Fatalf("chunk %d slot %d keeps %d watchers", c, i, len(slot.watchers))
			}
			slot.watchers = nil
			if !reflect.ValueOf(slot).IsZero() {
				t.Fatalf("chunk %d slot %d not zeroed: %+v", c, i, slot)
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
