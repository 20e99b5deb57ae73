package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCircularMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	out, err := CircularMovingAverage(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.5, 3.5, 2.5} // last wraps: (4+1)/2
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
}

func TestCircularMovingAverageWindowOne(t *testing.T) {
	x := []float64{5, 6, 7}
	out, err := CircularMovingAverage(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("window 1 should be identity: %v", out)
		}
	}
}

func TestCircularMovingAverageFullWindow(t *testing.T) {
	x := []float64{2, 4, 6}
	out, err := CircularMovingAverage(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if math.Abs(v-4) > 1e-12 {
			t.Fatalf("full window should equal mean: %v", out)
		}
	}
}

func TestCircularMovingAverageErrors(t *testing.T) {
	if _, err := CircularMovingAverage([]float64{1, 2}, 0); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := CircularMovingAverage([]float64{1, 2}, 3); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestCircularMovingAverageMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		w := 1 + rng.Intn(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 30
		}
		fast, err := CircularMovingAverage(x, w)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < w; j++ {
				s += x[(i+j)%n]
			}
			if math.Abs(fast[i]-s/float64(w)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestArgMin(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	if i := ArgMin(x); i != 1 {
		t.Fatalf("ArgMin = %d", i)
	}
	if ArgMin(nil) != -1 {
		t.Fatal("empty should give -1")
	}
}

func BenchmarkCircularMovingAverage98s(b *testing.B) {
	x := make([]float64, 98)
	for i := range x {
		x[i] = math.Sin(float64(i) / 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = CircularMovingAverage(x, 39)
	}
}
