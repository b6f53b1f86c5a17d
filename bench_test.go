// Package repro_test holds the benchmark harness: one bench target per
// experiment in DESIGN.md's index (E1–E9). The simulated benches
// report RMRs per critical-section entry (the paper's complexity
// measure) as a custom metric alongside wall-clock simulation cost;
// the E9 benches measure real goroutine throughput of the native
// locks.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"runtime"
	"sync"
	"testing"

	"fetchphi/internal/baseline"
	"fetchphi/internal/core"
	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/stress"
)

// benchWorkload runs one simulated configuration per iteration and
// reports the paper's metrics.
func benchWorkload(b *testing.B, builder harness.Builder, model memsim.Model, n int) {
	b.Helper()
	var mean, entryShare float64
	var worst int64
	for i := 0; i < b.N; i++ {
		met, err := harness.Run(builder, harness.Workload{
			Model: model, N: n, Entries: 5, CSOps: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		mean = met.MeanRMR
		worst = met.WorstRMR
		entryShare = met.Obs.PhaseShare("entry")
	}
	b.ReportMetric(mean, "RMR/entry")
	b.ReportMetric(float64(worst), "worstRMR/entry")
	b.ReportMetric(entryShare, "entryPhaseShare")
}

// BenchmarkE1_GCC_CC — Lemma 1: G-CC on the CC model stays O(1) as N
// grows (compare the RMR/entry metric across sub-benchmarks).
func BenchmarkE1_GCC_CC(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(harness.Itoa(int64(n)), func(b *testing.B) {
			benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
				return core.NewGCC(m, phi.FetchAndIncrement{})
			}, memsim.CC, n)
		})
	}
}

// BenchmarkE2_GDSM_DSM — Lemma 2: G-DSM on the DSM model.
func BenchmarkE2_GDSM_DSM(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(harness.Itoa(int64(n)), func(b *testing.B) {
			benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
				return core.NewGDSM(m, phi.FetchAndStore{})
			}, memsim.DSM, n)
		})
	}
}

// BenchmarkE3_Tree — Theorem 1: Θ(log_r N) arbitration trees.
func BenchmarkE3_Tree(b *testing.B) {
	for _, r := range []int{4, 8, 16} {
		for _, n := range []int{8, 64} {
			b.Run("r="+harness.Itoa(int64(r))+"/N="+harness.Itoa(int64(n)), func(b *testing.B) {
				benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
					return core.NewTree(m, phi.NewBoundedFetchInc(r))
				}, memsim.DSM, n)
			})
		}
	}
}

// BenchmarkE4_AlgT — Theorem 2: Algorithm T (and T0) vs the binary
// tree.
func BenchmarkE4_AlgT(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run("T/N="+harness.Itoa(int64(n)), func(b *testing.B) {
			benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
				return core.NewT(m, phi.BoundedIncDec{})
			}, memsim.CC, n)
		})
		b.Run("T0/N="+harness.Itoa(int64(n)), func(b *testing.B) {
			benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
				return core.NewT0(m)
			}, memsim.CC, n)
		})
		b.Run("tree4/N="+harness.Itoa(int64(n)), func(b *testing.B) {
			benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
				return core.NewTree(m, phi.NewBoundedFetchInc(4))
			}, memsim.CC, n)
		})
		b.Run("rw-tree/N="+harness.Itoa(int64(n)), func(b *testing.B) {
			benchWorkload(b, func(m *memsim.Machine) harness.Algorithm {
				return baseline.NewYangAndersonTree(m)
			}, memsim.CC, n)
		})
	}
}

// BenchmarkE5_Ranks — the rank estimator over every primitive.
func BenchmarkE5_Ranks(b *testing.B) {
	b.ReportAllocs()
	prims := phi.All(6)
	for i := 0; i < b.N; i++ {
		for _, prim := range prims {
			cap := prim.Rank()
			if cap == phi.RankInfinite || cap > 24 {
				cap = 24
			}
			if got := phi.EstimateRank(prim, 6, cap+2, 300, int64(i)); got < min(cap, prim.Rank()) {
				b.Fatalf("%s: estimated rank %d below claim", prim.Name(), got)
			}
		}
	}
}

// BenchmarkE6_Baselines — the Sec. 1 baseline attributes.
func BenchmarkE6_Baselines(b *testing.B) {
	names := []string{"test-and-set", "ticket", "t-anderson", "graunke-thakkar", "mcs", "mcs-swap-only", "clh"}
	for i, builder := range baseline.Builders() {
		builder := builder
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			b.Run(names[i]+"/"+model.String(), func(b *testing.B) {
				benchWorkload(b, builder, model, 16)
			})
		}
	}
}

// BenchmarkE7_Fairness — bypass bounds under long runs.
func BenchmarkE7_Fairness(b *testing.B) {
	var worst int64
	for i := 0; i < b.N; i++ {
		met, err := harness.Run(func(m *memsim.Machine) harness.Algorithm {
			return core.NewGDSM(m, phi.FetchAndIncrement{})
		}, harness.Workload{Model: memsim.CC, N: 6, Entries: 30, CSOps: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if met.MaxBypass > worst {
			worst = met.MaxBypass
		}
	}
	b.ReportMetric(float64(worst), "maxBypass")
}

// BenchmarkE8_Ablations — regenerates the six ablation/extension
// tables (stale signal, transformation cost, degree sweep, exit
// handshake, coherence model, primitive specialization).
func BenchmarkE8_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E8Ablations(experiments.Opts{Quick: true, Seed: int64(i)})
		if len(tables) != 6 {
			b.Fatalf("expected six ablation tables, got %d", len(tables))
		}
	}
}

// benchNative measures a native lock's throughput under full
// contention.
func benchNative(b *testing.B, cs func(id int, body func())) {
	b.Helper()
	var mu sync.Mutex // protects the id freelist only
	ids := make([]int, 0, runtime.GOMAXPROCS(0)+64)
	for i := cap(ids) - 1; i >= 0; i-- {
		ids = append(ids, i)
	}
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		id := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		mu.Unlock()
		var sink int
		for pb.Next() {
			cs(id, func() { sink++ })
		}
		_ = sink
	})
}

// BenchmarkE9_Native — real-hardware throughput of every native lock
// in the stress zoo (stress.Cases), the list E9 and cmd/lockstress run.
func BenchmarkE9_Native(b *testing.B) {
	maxIDs := runtime.GOMAXPROCS(0) + 64
	for _, c := range stress.Cases() {
		b.Run(c.Name, func(b *testing.B) { benchNative(b, c.Make(maxIDs)) })
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkVars256 — what a run costs in shared variables at big-n's
// size: N=256 on DSM, 8 entries each under NewRandom(1), for Theorem
// 1's degree-4 tree and for G-DSM. vars/op is the variables one run
// allocates, its build and every cell allocated on first touch
// included.
func BenchmarkVars256(b *testing.B) {
	const n, entries = 256, 8
	for _, name := range []string{"tree4", "g-dsm"} {
		build, err := experiments.Algorithm(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var vars int
			for i := 0; i < b.N; i++ {
				m := memsim.NewMachine(memsim.DSM, n)
				alg := build(m)
				for p := 0; p < n; p++ {
					m.AddProc("p", func(p *memsim.Proc) {
						for e := 0; e < entries; e++ {
							alg.Acquire(p)
							p.EnterCS()
							p.ExitCS()
							alg.Release(p)
						}
					})
				}
				if err := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(1)}).Err(); err != nil {
					b.Fatal(err)
				}
				vars = m.NumVars()
				m.Release()
			}
			b.ReportMetric(float64(vars), "vars/op")
		})
	}
}
