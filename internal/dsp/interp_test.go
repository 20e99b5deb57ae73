package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSortSamples(t *testing.T) {
	s := []Sample{{T: 3, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}}
	SortSamples(s)
	if s[0].T != 1 || s[1].T != 2 || s[2].T != 3 {
		t.Fatalf("not sorted: %v", s)
	}
}

func TestMergeDuplicateTimes(t *testing.T) {
	s := []Sample{{T: 10, V: 4}, {T: 10.4, V: 8}, {T: 11, V: 2}, {T: 20, V: 6}}
	m := MergeDuplicateTimes(s)
	if len(m) != 3 {
		t.Fatalf("len = %d, want 3: %v", len(m), m)
	}
	if m[0].T != 10 || m[0].V != 6 {
		t.Fatalf("merged sample = %v, want {10 6}", m[0])
	}
	if m[1].V != 2 || m[2].V != 6 {
		t.Fatalf("remaining samples wrong: %v", m)
	}
	if MergeDuplicateTimes(nil) != nil {
		t.Fatal("nil input should give nil")
	}
}

func TestCubicSplineInterpolatesKnots(t *testing.T) {
	pts := []Sample{{0, 1}, {10, 5}, {20, -3}, {35, 10}, {50, 0}}
	sp, err := NewCubicSpline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got := sp.At(p.T); math.Abs(got-p.V) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", p.T, got, p.V)
		}
	}
	lo, hi := sp.Domain()
	if lo != 0 || hi != 50 {
		t.Fatalf("Domain = %v, %v", lo, hi)
	}
}

func TestCubicSplineReproducesLine(t *testing.T) {
	// A natural spline through collinear points is exactly that line.
	pts := []Sample{{0, 0}, {5, 10}, {12, 24}, {20, 40}}
	sp, err := NewCubicSpline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 20; x += 0.5 {
		if got := sp.At(x); math.Abs(got-2*x) > 1e-9 {
			t.Fatalf("At(%v) = %v, want %v", x, got, 2*x)
		}
	}
}

func TestCubicSplineSmoothSine(t *testing.T) {
	// Knots every 5 s on a 98 s-period sine: spline error should be small.
	var pts []Sample
	period := 98.0
	f := func(x float64) float64 { return 20 + 15*math.Sin(2*math.Pi*x/period) }
	for x := 0.0; x <= 300; x += 5 {
		pts = append(pts, Sample{T: x, V: f(x)})
	}
	sp, err := NewCubicSpline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for x := 5.0; x <= 295; x += 1.3 {
		if got := sp.At(x); math.Abs(got-f(x)) > 0.1 {
			t.Fatalf("At(%v) = %v, want %v", x, got, f(x))
		}
	}
}

func TestCubicSplineErrors(t *testing.T) {
	if _, err := NewCubicSpline([]Sample{{0, 1}}); err != ErrInsufficientData {
		t.Fatalf("want ErrInsufficientData, got %v", err)
	}
	if _, err := NewCubicSpline([]Sample{{0, 1}, {0, 2}}); err == nil {
		t.Fatal("duplicate knots accepted")
	}
	if _, err := NewCubicSpline([]Sample{{5, 1}, {3, 2}}); err == nil {
		t.Fatal("decreasing knots accepted")
	}
}

func TestCubicSplineTwoPoints(t *testing.T) {
	sp, err := NewCubicSpline([]Sample{{0, 0}, {10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.At(5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("two-point spline At(5) = %v", got)
	}
}

func TestResampleSplineGrid(t *testing.T) {
	pts := []Sample{{0, 0}, {10, 10}, {20, 0}}
	g, err := ResampleSpline(pts, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 21 {
		t.Fatalf("len = %d, want 21", len(g))
	}
	if math.Abs(g[0]) > 1e-9 || math.Abs(g[10]-10) > 1e-9 || math.Abs(g[20]) > 1e-9 {
		t.Fatalf("knot values wrong: %v %v %v", g[0], g[10], g[20])
	}
	// The same spline on a half-second grid: every other point is the
	// 1-unit grid's, bit for bit.
	var r Resampler
	half, err := r.SplineGrid(pts, 0, 0.5, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g {
		if half[2*i] != v {
			t.Fatalf("half-second grid at %d s = %v, 1-unit grid %v", i, half[2*i], v)
		}
	}
}

func TestResampleInvertedGrid(t *testing.T) {
	pts := []Sample{{0, 0}, {10, 10}}
	if _, err := ResampleSpline(pts, 10, 0); err == nil {
		t.Fatal("inverted grid accepted")
	}
}

func TestSplinePassesThroughKnotsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		pts := make([]Sample, n)
		tcur := 0.0
		for i := range pts {
			tcur += 1 + rng.Float64()*30
			pts[i] = Sample{T: tcur, V: rng.NormFloat64() * 50}
		}
		sp, err := NewCubicSpline(pts)
		if err != nil {
			return false
		}
		for _, p := range pts {
			if math.Abs(sp.At(p.T)-p.V) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplineFit100(b *testing.B) {
	pts := make([]Sample, 100)
	for i := range pts {
		pts[i] = Sample{T: float64(i * 20), V: math.Sin(float64(i))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = NewCubicSpline(pts)
	}
}
