package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func periodicSignal(n int, period float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*noise
	}
	return x
}

func TestWelchSpectrumPeak(t *testing.T) {
	// Period 64 samples -> with segLen 512 the peak sits at bin 8.
	x := periodicSignal(4096, 64, 2, 4)
	spec, err := WelchSpectrum(x, 512)
	if err != nil {
		t.Fatal(err)
	}
	best := 1
	for k := 2; k < len(spec); k++ {
		if spec[k] > spec[best] {
			best = k
		}
	}
	if best != 8 {
		t.Fatalf("Welch peak at bin %d, want 8", best)
	}
}

func TestWelchSpectrumErrors(t *testing.T) {
	x := make([]float64, 64)
	if _, err := WelchSpectrum(x, 2); err == nil {
		t.Fatal("tiny segment accepted")
	}
	if _, err := WelchSpectrum(x, 128); err == nil {
		t.Fatal("oversized segment accepted")
	}
}

func TestWelchReducesVariance(t *testing.T) {
	// For white noise, the Welch estimate's spread across bins is much
	// smaller than a single periodogram's.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 8192)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	single := Magnitudes(FFTReal(x[:1024]))
	welch, err := WelchSpectrum(x, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cv := func(xs []float64) float64 {
		var m, s float64
		for _, v := range xs {
			m += v
		}
		m /= float64(len(xs))
		for _, v := range xs {
			s += (v - m) * (v - m)
		}
		return math.Sqrt(s/float64(len(xs))) / m
	}
	singlePow := make([]float64, 512)
	for k := 1; k <= 512; k++ {
		singlePow[k-1] = single[k] * single[k]
	}
	if cv(welch[1:513]) >= cv(singlePow) {
		t.Fatalf("Welch cv %.3f not below single periodogram cv %.3f",
			cv(welch[1:513]), cv(singlePow))
	}
}
