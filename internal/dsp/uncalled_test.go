package dsp

import (
	"fmt"
	"math/cmplx"
)

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

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

// WelchSpectrum estimates the power spectrum of x by averaging
// Hann-windowed, half-overlapping segments of the given length (Welch's
// method). The result has segLen/2+1 bins; bin k corresponds to frequency
// k/segLen cycles per sample. Averaging trades frequency resolution for
// variance reduction — useful when a single long DFT is dominated by
// noise bursts.
func WelchSpectrum(x []float64, segLen int) ([]float64, error) {
	n := len(x)
	if segLen < 4 || segLen > n {
		return nil, fmt.Errorf("dsp: segment length %d outside [4, %d]", segLen, n)
	}
	hop := segLen / 2
	out := make([]float64, segLen/2+1)
	segments := 0
	for start := 0; start+segLen <= n; start += hop {
		seg := HannWindow(Detrend(x[start : start+segLen]))
		spec := FFTReal(seg)
		for k := 0; k <= segLen/2; k++ {
			m := cmplx.Abs(spec[k])
			out[k] += m * m
		}
		segments++
	}
	if segments == 0 {
		return nil, fmt.Errorf("dsp: no full segments")
	}
	inv := 1 / float64(segments)
	for k := range out {
		out[k] *= inv
	}
	return out, nil
}

// ResampleLinear is the linear-interpolation counterpart of
// ResampleSpline, kept for the interpolation ablation study.
func ResampleLinear(pts []Sample, t0, t1 float64) ([]float64, error) {
	var r Resampler
	return r.Linear(pts, t0, t1)
}

// ResampleHold is zero-order hold resampling (last value carried forward),
// the crudest baseline in the interpolation ablation.
func ResampleHold(pts []Sample, t0, t1 float64) ([]float64, error) {
	var r Resampler
	return r.Hold(pts, t0, t1)
}
