package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveAllSizes(t *testing.T) {
	// Cover powers of two (radix-2 path) and awkward sizes (Bluestein).
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 30, 37, 60, 64, 97, 100, 128} {
		x := randomSignal(n, int64(n))
		fast := FFT(x)
		slow := DFTNaive(x)
		if !complexClose(fast, slow, 1e-7*float64(n)) {
			t.Errorf("n=%d: FFT does not match naive DFT", n)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if out := FFT(nil); out != nil {
		t.Fatal("FFT(nil) should be nil")
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := randomSignal(16, 5)
	orig := append([]complex128(nil), x...)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("input modified")
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{1, 2, 8, 15, 64, 90, 128, 1800} {
		x := randomSignal(n, int64(n)*3)
		// The inverse transform is the forward one between two
		// conjugations, scaled by 1/N.
		spec := FFT(x)
		for i := range spec {
			spec[i] = cmplx.Conj(spec[i])
		}
		back := FFT(spec)
		for i := range back {
			back[i] = cmplx.Conj(back[i]) / complex(float64(n), 0)
		}
		if !complexClose(back, x, 1e-8*float64(n)) {
			t.Errorf("n=%d: IFFT(FFT(x)) != x", n)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed1, seed2 int64) bool {
		n := 60
		a := randomSignal(n, seed1)
		b := randomSignal(n, seed2)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+fb[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 128
		x := randomSignal(n, seed)
		X := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		return math.Abs(et-ef/float64(n)) < 1e-6*et+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTRealPureTone(t *testing.T) {
	// A 37-cycle tone over a 3600 s window: the Fig. 6 scenario. The
	// dominant bin must be exactly 37.
	n := 3600
	x := make([]float64, n)
	for i := range x {
		x[i] = 20 + 15*math.Sin(2*math.Pi*37*float64(i)/float64(n))
	}
	mags := Magnitudes(FFTReal(Detrend(x)))
	if bin := peakBin(mags); bin != 37 {
		t.Fatalf("dominant bin = %d, want 37", bin)
	}
}

func TestFFTSpectrumSymmetryForRealInput(t *testing.T) {
	x := make([]float64, 90)
	rng := rand.New(rand.NewSource(9))
	for i := range x {
		x[i] = rng.Float64() * 50
	}
	X := FFTReal(x)
	for k := 1; k < len(x)/2; k++ {
		if cmplx.Abs(X[k]-cmplx.Conj(X[len(x)-k])) > 1e-7 {
			t.Fatalf("spectrum not conjugate-symmetric at bin %d", k)
		}
	}
}

// peakBin returns the strongest bin of a real signal's one-sided
// spectrum, DC excluded.
func peakBin(mags []float64) int {
	best := 1
	for k := 2; k <= len(mags)/2; k++ {
		if mags[k] > mags[best] {
			best = k
		}
	}
	return best
}

func TestDetrend(t *testing.T) {
	x := []float64{1, 2, 3}
	d := Detrend(x)
	if s := d[0] + d[1] + d[2]; math.Abs(s) > 1e-12 {
		t.Fatalf("detrended sum = %v", s)
	}
	if x[0] != 1 {
		t.Fatal("Detrend modified input")
	}
	if Detrend(nil) != nil {
		t.Fatal("Detrend(nil) != nil")
	}
}

func TestHannWindow(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1}
	w := HannWindow(x)
	if w[0] != 0 || w[len(w)-1] != 0 {
		t.Fatalf("Hann endpoints not zero: %v", w)
	}
	if math.Abs(w[2]-1) > 1e-12 {
		t.Fatalf("Hann midpoint = %v", w[2])
	}
	one := HannWindow([]float64{7})
	if one[0] != 7 {
		t.Fatalf("single-sample window = %v", one)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkFFTRadix2_1024(b *testing.B) {
	x := randomSignal(1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein_1800(b *testing.B) {
	// 1800 s = 30-minute analysis window at 1 Hz, the paper's suggested input.
	x := randomSignal(1800, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein_3600(b *testing.B) {
	x := randomSignal(3600, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkDFTNaive_1800(b *testing.B) {
	x := randomSignal(1800, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DFTNaive(x)
	}
}

func TestFFTPlanMatchesFFTReal(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 64, 90, 1800, 1801, 3600} {
		plan, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if plan.N() != n {
			t.Fatalf("N = %d", plan.N())
		}
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 20
		}
		want := Magnitudes(FFTReal(x))
		got, err := plan.MagnitudesReal(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-6*(1+want[k]) {
				t.Fatalf("n=%d bin %d: plan %v vs direct %v", n, k, got[k], want[k])
			}
		}
		// Reuse: a second call must give the same answer.
		again, err := plan.MagnitudesReal(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Abs(again[k]-want[k]) > 1e-6*(1+want[k]) {
				t.Fatalf("n=%d: plan not reusable at bin %d", n, k)
			}
		}
	}
}

func TestFFTPlanErrors(t *testing.T) {
	if _, err := NewFFTPlan(0); err == nil {
		t.Fatal("zero-length plan accepted")
	}
	plan, err := NewFFTPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.MagnitudesReal(make([]float64, 8)); err == nil {
		t.Fatal("wrong-length input accepted")
	}
}

func BenchmarkFFTPlanned3601(b *testing.B) {
	plan, err := NewFFTPlan(3601)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 3601)
	for i := range x {
		x[i] = math.Sin(float64(i) / 15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.MagnitudesReal(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFTUnplanned3601(b *testing.B) {
	x := make([]float64, 3601)
	for i := range x {
		x[i] = math.Sin(float64(i) / 15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Magnitudes(FFTReal(x))
	}
}

func ExampleFFTReal() {
	// A pure 4-cycle tone in 16 samples: energy concentrates in bin 4.
	x := make([]float64, 16)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 4 * float64(i) / 16)
	}
	mags := Magnitudes(FFTReal(x))
	fmt.Printf("dominant bin: %d\n", peakBin(mags))
	// Output:
	// dominant bin: 4
}

func ExampleCircularMovingAverage() {
	x := []float64{1, 2, 3, 4}
	avg, err := CircularMovingAverage(x, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(avg) // last entry wraps: (4+1)/2
	// Output:
	// [1.5 2.5 3.5 2.5]
}
