package dsp

import "fmt"

// Convolve returns the full linear convolution of x and h, of length
// len(x)+len(h)-1. Small kernels use the direct algorithm; large products
// switch to FFT-based convolution.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	// Direct is faster until the work area gets large.
	if len(x)*len(h) <= 4096 {
		return convolveDirect(x, h)
	}
	return convolveFFT(x, h)
}

func convolveDirect(x, h []float64) []float64 {
	out := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

func convolveFFT(x, h []float64) []float64 {
	n := len(x) + len(h) - 1
	m := nextPow2(n)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for i, v := range x {
		a[i] = complex(v, 0)
	}
	for i, v := range h {
		b[i] = complex(v, 0)
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for i := 0; i < n; i++ {
		out[i] = real(a[i]) * inv
	}
	return out
}

// CircularMovingAverage computes the moving average of a periodic signal x
// with the given window length, treating x as one full cycle so the window
// wraps around. out[i] is the mean of x[i], x[i+1], ..., x[i+window-1]
// (indices mod len(x)). This is the paper's sliding-window convolution over
// superposed (single-cycle) data. It returns an error if window is not in
// [1, len(x)].
func CircularMovingAverage(x []float64, window int) ([]float64, error) {
	return CircularMovingAverageInto(nil, x, window)
}

// CircularMovingAverageInto is CircularMovingAverage writing into dst
// (grown as needed and returned), so repeated scans over candidate window
// lengths reuse one buffer. dst must not alias x.
func CircularMovingAverageInto(dst, x []float64, window int) ([]float64, error) {
	n := len(x)
	if window < 1 || window > n {
		return nil, fmt.Errorf("dsp: window %d out of range [1, %d]", window, n)
	}
	out := grow(dst, n)
	// Prefix-sum over two copies for O(n).
	sum := 0.0
	for i := 0; i < window; i++ {
		sum += x[i%n]
	}
	out[0] = sum / float64(window)
	for i := 1; i < n; i++ {
		sum += x[(i+window-1)%n] - x[i-1]
		out[i] = sum / float64(window)
	}
	return out, nil
}

// ArgMin returns the index of the smallest element of x (first on ties).
// It returns -1 for an empty slice.
func ArgMin(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	bi := 0
	for i := 1; i < len(x); i++ {
		if x[i] < x[bi] {
			bi = i
		}
	}
	return bi
}
