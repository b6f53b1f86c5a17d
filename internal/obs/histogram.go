// Package obs is the observability subsystem: distributional run
// metrics (log-bucketed histograms, per-phase RMR breakdowns), the
// JSON benchmark-artifact schema cmd/report and bench/perf write,
// and the regression gate that compares artifacts across commits.
//
// The package is deliberately stdlib-only and free of simulator
// dependencies, so artifacts can be produced (and compared) by any
// layer of the stack.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
)

// ReservoirCap bounds the per-histogram sample reservoir: quantiles
// are exact up to this many samples and bucket-bounded beyond it.
const ReservoirCap = 1024

// Histogram is a log₂-bucketed histogram of non-negative int64
// samples. Bucket 0 counts exact zeros; bucket i ≥ 1 counts samples in
// [2^(i-1), 2^i − 1]. The bucket slice grows on demand, so the zero
// Histogram is ready to use and the JSON form stays compact.
//
// Alongside the buckets, a bounded reservoir retains raw samples: all
// of them while they fit (quantiles are then exact), and a
// deterministic uniform subsample once Count exceeds ReservoirCap
// (quantiles fall back to the bucket upper bound). The reservoir's
// replacement indices come from a fixed hash of the sample ordinal —
// seeded by construction, never the process-global rand — so identical
// runs produce bit-identical reservoirs.
type Histogram struct {
	// Count is the number of observed samples.
	Count int64 `json:"count"`
	// Sum is the sum of all samples (Mean = Sum/Count).
	Sum int64 `json:"sum"`
	// Min and Max are the extreme samples; valid only when Count > 0.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Buckets are the per-bucket counts, lowest bucket first.
	Buckets []int64 `json:"buckets,omitempty"`
	// Samples is the bounded reservoir, in observation order.
	Samples []int64 `json:"samples,omitempty"`
}

// splitmix64 is the deterministic index hash behind the reservoir:
// a fixed bijective mixer (Vigna's SplitMix64 finalizer), applied to
// the sample ordinal.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the inclusive sample range of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Observe adds one sample. Negative samples clamp to zero (per-entry
// metrics are counts; a negative value is a caller bug, not data).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	if len(h.Samples) < ReservoirCap {
		h.Samples = append(h.Samples, v)
	} else if j := splitmix64(uint64(h.Count)) % uint64(h.Count); j < ReservoirCap {
		// Algorithm R with a deterministic index: sample h.Count
		// replaces a slot with probability ReservoirCap/Count.
		h.Samples[j] = v
	}
}

// Exact reports whether the reservoir still holds every observed
// sample, i.e. quantiles are exact rather than bucket upper bounds.
func (h *Histogram) Exact() bool {
	return h.Count > 0 && int64(len(h.Samples)) == h.Count
}

// Mean returns the exact sample mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Merge folds other into h. Reservoirs concatenate; when the combined
// reservoir overflows ReservoirCap it is thinned to an evenly strided
// (deterministic) subset, so merged quantiles degrade to estimates but
// merged histograms stay bit-reproducible.
func (h *Histogram) Merge(other *Histogram) {
	if other.Count == 0 {
		return
	}
	for len(h.Buckets) < len(other.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, c := range other.Buckets {
		h.Buckets[i] += c
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	h.Samples = append(h.Samples, other.Samples...)
	if n := len(h.Samples); n > ReservoirCap {
		kept := make([]int64, ReservoirCap)
		for i := range kept {
			kept[i] = h.Samples[i*n/ReservoirCap]
		}
		h.Samples = kept
	}
}

// Quantile returns the q-th quantile (q in [0,1]). While the
// reservoir holds every sample (Exact), the value is the exact
// ⌈q·Count⌉-th smallest sample. Once the reservoir has overflowed,
// it falls back to the upper edge of the bucket holding that sample,
// clamped to Max — exact to within a factor of 2, enough to see
// distribution shape shifts.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	if h.Exact() {
		s := append([]int64(nil), h.Samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[target-1]
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			_, hi := BucketBounds(i)
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// String renders a one-line summary. Quantiles are labeled `=` while
// the reservoir holds every sample (exact) and `≤` once it has
// overflowed and only the bucket upper bound is known.
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	rel := "≤"
	if h.Exact() {
		rel = "="
	}
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50%s%d p99%s%d max=%d",
		h.Count, h.Mean(), h.Min, rel, h.Quantile(0.5), rel, h.Quantile(0.99), h.Max)
}
