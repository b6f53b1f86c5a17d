package memsim

import (
	"math"
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
// execute each wave in arbitrary-sized contiguous ranges, hand the
// ranges to ExploreWaves in index order — and checks the reassembled
// exploration matches Explorer.Run bit for bit.
func TestRunScheduleRangeReassemblesRun(t *testing.T) {
	ref := (&Explorer{Build: rangeBuild, MaxPreemptions: 2, MaxSteps: 5000}).Run()
	if ref.Err != nil || !ref.Exhausted {
		t.Fatalf("reference run: %+v", ref)
	}

	e := &Explorer{Build: rangeBuild, MaxPreemptions: 2, MaxSteps: 5000}
	exec := func(f Frontier) []RangeOutcome {
		// Split the wave into ranges of 3 and execute them out of
		// order — each range knows its place, so order must not matter.
		outs := make([]RangeOutcome, (f.Wave.Len+2)/3)
		for lo := (f.Wave.Len - 1) / 3 * 3; lo >= 0; lo -= 3 {
			outs[lo/3] = rangeOutcomes(t, e, f.Wave.Range(lo, min(lo+3, f.Wave.Len)))
			outs[lo/3].Lo = lo
		}
		return outs
	}
	got, err := ExploreWaves(Frontier{Wave: RootWave()}, math.MaxInt, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, ref); err != nil {
		t.Fatal(err)
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
	w1 := nextWave(root, []RangeOutcome{{Children: []int{2}, Appended: []Preemption{p(1, 1), p(4, 0)}}})
	want1 := Wave{Depth: 1, Len: 2, Slab: []Preemption{p(1, 1), p(4, 0)}}
	if !reflect.DeepEqual(w1, want1) {
		t.Fatalf("depth-1 wave %+v, want %+v", w1, want1)
	}
	w2 := nextWave(w1, []RangeOutcome{{Children: []int{2}, Appended: []Preemption{p(2, 0), p(3, 0)}}, {Lo: 1, Children: []int{0}}})
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
	if empty := nextWave(w2, []RangeOutcome{{Children: []int{0, 0}}}); empty.Len != 0 || empty.Depth != 3 || empty.Slab != nil {
		t.Fatalf("a wave without children built %+v", empty)
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
			wave = nextWave(wave, []RangeOutcome{first})
		}
	}
}

// subRange returns the outcome of schedules [lo, hi) of r, a range
// starting at 0, as a range of its own starting at 0.
func subRange(r RangeOutcome, lo, hi int) RangeOutcome {
	off := 0
	for _, c := range r.Children[:lo] {
		off += c
	}
	n := 0
	for _, c := range r.Children[lo:hi] {
		n += c
	}
	sub := RangeOutcome{Children: r.Children[lo:hi], Appended: r.Appended[off : off+n]}
	for _, f := range r.Failures {
		if f.Index >= lo && f.Index < hi {
			sub.Failures = append(sub.Failures, Failure{Index: f.Index - lo, Err: f.Err})
		}
	}
	return sub
}

// sameRange compares two range outcomes array by array; errors compare
// by message.
func sameRange(got, want RangeOutcome) bool {
	if got.Lo != want.Lo || !slices.Equal(got.Children, want.Children) || !slices.Equal(got.Appended, want.Appended) ||
		len(got.Failures) != len(want.Failures) {
		return false
	}
	for i, f := range got.Failures {
		if f.Index != want.Failures[i].Index || f.Err.Error() != want.Failures[i].Err.Error() {
			return false
		}
	}
	return true
}

// TestRunScheduleRangeShardsMatchSequential: a range run at 1 or 3
// shards returns the same three arrays as the sequential run of the
// whole wave holds for those schedules, on a passing and a failing
// space, at every depth; at 3 shards the workers' pieces are joined.
func TestRunScheduleRangeShardsMatchSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Machine
	}{
		{"passing", tasLockMachineN(3, 1)},
		{"failing", brokenLockMachineN(2, 2)},
	} {
		seq := &Explorer{Build: tc.build, MaxPreemptions: 2, MaxSteps: 5000}
		wave := RootWave()
		for wave.Len > 0 {
			ref := runRange(t, seq, wave)
			for _, shards := range []int{1, 3} {
				e := &Explorer{Build: tc.build, MaxPreemptions: 2, MaxSteps: 5000, Workers: shards}
				for _, r := range [][2]int{{0, wave.Len}, {wave.Len / 3, wave.Len}, {0, (wave.Len + 1) / 2}} {
					if r[0] == r[1] {
						continue
					}
					got := runRange(t, e, wave.Range(r[0], r[1]))
					if want := subRange(ref, r[0], r[1]); !sameRange(got, want) {
						t.Fatalf("%s depth %d, [%d,%d) at %d shards: %+v, want %+v", tc.name, wave.Depth, r[0], r[1], shards, got, want)
					}
				}
			}
			wave = nextWave(wave, []RangeOutcome{ref})
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
