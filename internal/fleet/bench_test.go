package fleet

import (
	"testing"

	"fetchphi/internal/experiments"
)

// BenchmarkFleetCheck is the fleet's host cost beside memsim's
// BenchmarkExploreRange: one in-process Check of g-dsm at N=2, two
// entries, K=2 — both models, every schedule — over two loopback
// workers, leases, reports and JSON included. B/op counts the
// coordinator's, the workers' and the HTTP stack's allocations alike.
func BenchmarkFleetCheck(b *testing.B) {
	build, err := experiments.Algorithm("g-dsm")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Algorithm: "g-dsm", N: 2, Entries: 2, Preemptions: 2}
	b.ReportAllocs()
	scheds := 0
	for i := 0; i < b.N; i++ {
		reports, err := Check(build, cfg, CheckOptions{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			scheds += r.Result.Runs
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scheds), "ns/schedule")
}
