// Package dsp is the numeric/signal-processing substrate of the paper's
// cycle-length identifier (§V): cubic-spline interpolation of irregular
// samples onto a regular grid, a radix-2 FFT of that grid (a length that
// is not a power of two is zero-padded up to one), and the circular
// moving average of the change stage. The period estimators the DFT is
// compared against (autocorrelation, Lomb-Scargle) and the STFT view of
// Fig. 12 are internal/experiments'.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x zero-padded to P, the
// smallest power of two ≥ len(x):
//
//	X[k] = sum_{n=0}^{len(x)-1} x[n] * exp(-2πi·kn/P),  k < P
//
// Repeated transforms of one length belong on an FFTPlan. The input is
// not modified. An empty input yields an empty output.
func FFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, NextPow2(len(x)))
	copy(out, x)
	fftRadix2(out)
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum of x zero-padded as FFT pads it.
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// fftRadix2 computes an in-place iterative Cooley-Tukey FFT. len(x) must be
// a power of two.
func fftRadix2(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := -2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// Detrend subtracts the mean from x in a new slice. Removing DC before the
// DFT keeps bin 0 from masking the traffic-light fundamental.
func Detrend(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	m := 0.0
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

// DetrendInPlace subtracts the mean from x in place — the allocation-free
// variant for callers that own the buffer (e.g. a Resampler grid).
func DetrendInPlace(x []float64) {
	if len(x) == 0 {
		return
	}
	m := 0.0
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i := range x {
		x[i] -= m
	}
}

// HannWindow multiplies x by a Hann window in a new slice, reducing
// spectral leakage when the window length is not an integer number of
// cycles.
func HannWindow(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 1 {
		out[0] = x[0]
		return out
	}
	for i, v := range x {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		out[i] = v * w
	}
	return out
}
