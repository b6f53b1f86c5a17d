package fit

import (
	"math"
	"testing"
)

func series(ns []int, f func(n int) float64) []Point {
	pts := make([]Point, 0, len(ns))
	for _, n := range ns {
		pts = append(pts, Point{N: n, Y: f(n)})
	}
	return pts
}

var sweepNs = []int{2, 4, 8, 16, 32, 64, 128, 256}

// TestFitConstantWithNoise: a flat series with scheduler-scale noise
// must classify constant, even though the log model fits tighter in
// raw SSE (the Flat flag records exactly that).
func TestFitConstantWithNoise(t *testing.T) {
	// The real E1 full-sweep worst-RMR series.
	ys := []float64{17, 17, 22, 22, 18, 24, 23, 23}
	pts := make([]Point, len(ys))
	for i, y := range ys {
		pts[i] = Point{N: sweepNs[i], Y: y}
	}
	r, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != Constant {
		t.Fatalf("best = %v, want constant (fits: %+v)", r.Best, r.Fits)
	}
	if !r.Flat {
		t.Error("Flat not set: the log model fits this noisy series tighter and the guard must record it")
	}
	if r.BestName != "constant" {
		t.Fatalf("BestName = %q", r.BestName)
	}
}

// TestFitLogSeries: a genuine a + b·log₂ N series classifies as log N
// with a decisive margin.
func TestFitLogSeries(t *testing.T) {
	r, err := Fit(series(sweepNs, func(n int) float64 {
		return 40 + 50*math.Log2(float64(n))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != LogN {
		t.Fatalf("best = %v, want log N", r.Best)
	}
	if f := r.BestFit(); f.R2 < 0.999 {
		t.Fatalf("R² = %v, want ≈1", f.R2)
	}
	if r.Margin < 10 {
		t.Fatalf("margin = %v, want decisive (≥10)", r.Margin)
	}
}

// TestFitLogLogSeries: Algorithm T's shape needs a wide N range to
// separate from plain log N, and then the exact transform wins.
func TestFitLogLogSeries(t *testing.T) {
	ns := []int{16, 64, 256, 1024, 4096, 16384, 65536}
	r, err := Fit(series(ns, func(n int) float64 {
		ln := math.Log(float64(n))
		return 10 + 30*ln/math.Log(ln)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != LogLogN {
		t.Fatalf("best = %v, want log N / log log N (fits: %+v)", r.Best, r.Fits)
	}
}

// TestFitLinearSeries: Θ(N) growth classifies linear, not as a very
// steep logarithm.
func TestFitLinearSeries(t *testing.T) {
	r, err := Fit(series(sweepNs, func(n int) float64 { return 5 + 3*float64(n) }))
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != Linear {
		t.Fatalf("best = %v, want linear", r.Best)
	}
}

// TestFitTwoPointsAlwaysConstant: with fewer than MinGrowthPoints
// distinct N values any two-parameter model interpolates exactly, so
// the guard must refuse a growth verdict no matter how steep the data.
func TestFitTwoPointsAlwaysConstant(t *testing.T) {
	r, err := Fit([]Point{{N: 4, Y: 52}, {N: 16, Y: 191}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != Constant {
		t.Fatalf("best = %v, want constant (2 points cannot support a growth claim)", r.Best)
	}
	if !r.Flat {
		t.Error("Flat not set for an interpolating growth model")
	}
}

// TestFitSmallRelativeRise: a statistically clean but tiny slope (a
// few percent across the whole range) stays constant under the rise
// floor.
func TestFitSmallRelativeRise(t *testing.T) {
	r, err := Fit(series(sweepNs, func(n int) float64 {
		return 100 + 0.5*math.Log2(float64(n)) // rise 3.5 over mean ≈ 102
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != Constant {
		t.Fatalf("best = %v, want constant (rise below GrowthRise·mean)", r.Best)
	}
}

// TestFitPerfectlyFlat: zero variance fits every model perfectly and
// selects constant with R² 1 and no Flat flag.
func TestFitPerfectlyFlat(t *testing.T) {
	r, err := Fit(series(sweepNs, func(int) float64 { return 56 }))
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != Constant || r.Flat {
		t.Fatalf("best = %v flat = %v, want clean constant", r.Best, r.Flat)
	}
	if r.Fits[Constant].R2 != 1 {
		t.Fatalf("constant R² = %v, want 1", r.Fits[Constant].R2)
	}
}

// TestFitDeterministic: same input, same output, field for field —
// the property the claims artifact's byte-stability rests on.
func TestFitDeterministic(t *testing.T) {
	pts := series(sweepNs, func(n int) float64 { return 40 + 50*math.Log2(float64(n)) })
	a, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := Fit(pts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Best != b.Best || a.Margin != b.Margin {
			t.Fatalf("run %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Fits {
			if a.Fits[j] != b.Fits[j] {
				t.Fatalf("run %d fit %d differs: %+v vs %+v", i, j, a.Fits[j], b.Fits[j])
			}
		}
	}
}

// TestFitInputOrderIrrelevant: points arrive pre-sorted or shuffled,
// the classification is identical (the series is a set, not a list).
func TestFitInputOrderIrrelevant(t *testing.T) {
	asc := series(sweepNs, func(n int) float64 { return 40 + 50*math.Log2(float64(n)) })
	desc := make([]Point, len(asc))
	for i, p := range asc {
		desc[len(asc)-1-i] = p
	}
	a, err := Fit(asc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(desc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || a.BestFit() != b.BestFit() {
		t.Fatalf("order-dependent fit: %+v vs %+v", a.BestFit(), b.BestFit())
	}
}

// TestFitErrors: degenerate inputs fail loudly instead of
// classifying garbage.
func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := Fit([]Point{{N: 4, Y: 1}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Fit([]Point{{N: 0, Y: 1}, {N: 4, Y: 2}}); err == nil {
		t.Error("non-positive N accepted")
	}
}

// TestParseModelRoundTrip pins the artifact spelling of every model.
func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range Models() {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("cubic"); err == nil {
		t.Error("unknown model accepted")
	}
}

// FuzzParseModel: whatever string a claims artifact carries as a
// model name, ParseModel returns an error or a model that spells the
// string back exactly, and never panics.
func FuzzParseModel(f *testing.F) {
	for _, m := range Models() {
		f.Add(m.String())
	}
	for _, s := range []string{"cubic", "model(4)", "log N ", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if err == nil && m.String() != s {
			t.Fatalf("ParseModel(%q) = %v, which spells %q", s, m, m.String())
		}
	})
}

// TestEvalMatchesTransform: Eval is the curve the HTML report overlays;
// it must agree with the fitted parameters at the sample points.
func TestEvalMatchesTransform(t *testing.T) {
	pts := series(sweepNs, func(n int) float64 { return 7 + 2*float64(n) })
	r, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	f := r.BestFit()
	for _, p := range pts {
		if got := f.Eval(float64(p.N)); math.Abs(got-p.Y) > 1e-6 {
			t.Fatalf("Eval(%d) = %v, want %v", p.N, got, p.Y)
		}
	}
}
