package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1: sum of squares = 32, 32/7.
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("expected NaN for degenerate inputs")
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min err = %v", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max err = %v", err)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("Quantile err = %v", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -1 || mx != 7 {
		t.Fatalf("Min/Max = %v/%v", mn, mx)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	q, err := Quantile(xs, 0.5)
	if err != nil || math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median = %v, %v", q, err)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 4 {
		t.Fatalf("extremes: %v, %v", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range q accepted")
	}
	m, _ := Median([]float64{5})
	if m != 5 {
		t.Fatalf("single-element median = %v", m)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestFitNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 40 // sigma 40, like Fig. 2(d)
	}
	f, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Mu) > 1.5 || math.Abs(f.Sigma-40) > 1.5 {
		t.Fatalf("fit = %+v, want mu~0 sigma~40", f)
	}
	if p := f.CDF(f.Mu); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("CDF(mu) = %v", p)
	}
	if d := f.PDF(f.Mu); d <= f.PDF(f.Mu+40) {
		t.Fatal("PDF not peaked at mu")
	}
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Fatal("FitNormal on tiny input should error")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, -1, 10, 11} {
		h.Add(x)
	}
	if h.Total() != 8 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("Under/Over = %d/%d", h.Under, h.Over)
	}
	want := []int{2, 1, 1, 0, 1}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Fatalf("bin %d = %d, want %d (all: %v)", i, h.Counts[i], c, h.Counts)
		}
	}
	if c := h.BinCenter(0); c != 1 {
		t.Fatalf("BinCenter(0) = %v", c)
	}
	bi, bc := h.MaxBin()
	if bi != 0 || bc != 2 {
		t.Fatalf("MaxBin = %d, %d", bi, bc)
	}
}

func TestHistogramPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestHistogramASCII(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.AddN(0.5, 3)
	h.Add(1.5)
	out := h.ASCII(10)
	if out == "" {
		t.Fatal("empty ASCII output")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	v, err := e.Inverse(0.5)
	if err != nil || v != 2 {
		t.Fatalf("Inverse(0.5) = %v, %v", v, err)
	}
	if _, err := e.Inverse(2); err == nil {
		t.Fatal("Inverse out of range accepted")
	}
	xs, ps := e.Points()
	if len(xs) != 4 || ps[3] != 1 {
		t.Fatalf("Points: %v %v", xs, ps)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewECDF(raw)
		prev := -1.0
		for _, x := range raw {
			p := e.At(x)
			if p < 0 || p > 1 {
				return false
			}
			_ = prev
		}
		// monotonicity over a sweep
		lo, _ := Min(raw)
		hi, _ := Max(raw)
		step := (hi - lo) / 17
		if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
			return true
		}
		pprev := 0.0
		for x := lo; x <= hi; x += step {
			p := e.At(x)
			if p < pprev-1e-12 {
				return false
			}
			pprev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(0, 100, 200)
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 100))
	}
}

func TestKSTestAcceptsMatchingDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 40
	}
	ref := NormalFit{Mu: 0, Sigma: 40}
	res, err := KSTest(xs, ref.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.01 {
		t.Fatalf("normal sample rejected: D=%v p=%v", res.D, res.PValue)
	}
	if res.N != 2000 || res.D <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestKSTestRejectsWrongDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Float64() * 100 // uniform, tested against a normal
	}
	ref := NormalFit{Mu: 50, Sigma: 29}
	res, err := KSTest(xs, ref.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.01 {
		t.Fatalf("uniform sample accepted as normal: D=%v p=%v", res.D, res.PValue)
	}
}

func TestKSTestNormalSelfFit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*7 + 3
	}
	res, fit, err := KSTestNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-3) > 1 || math.Abs(fit.Sigma-7) > 1 {
		t.Fatalf("fit = %+v", fit)
	}
	if res.PValue < 0.01 {
		t.Fatalf("self-fit rejected: %+v", res)
	}
}

func TestKSTestErrors(t *testing.T) {
	if _, err := KSTest([]float64{1, 2}, func(float64) float64 { return 0.5 }); err == nil {
		t.Fatal("tiny sample accepted")
	}
	xs := []float64{1, 2, 3, 4, 5, 6}
	if _, err := KSTest(xs, func(float64) float64 { return math.NaN() }); err == nil {
		t.Fatal("NaN CDF accepted")
	}
	if _, _, err := KSTestNormal([]float64{1}); err == nil {
		t.Fatal("KSTestNormal tiny sample accepted")
	}
}

func ExampleECDF() {
	e := NewECDF([]float64{1, 2, 2, 3})
	fmt.Printf("P(X <= 2) = %.2f\n", e.At(2))
	// Output:
	// P(X <= 2) = 0.75
}
