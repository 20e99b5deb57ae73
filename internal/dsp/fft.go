// Package dsp is the numeric/signal-processing substrate of the paper's
// cycle-length identifier (§V), which needs a DFT over windows whose
// length is an arbitrary number of seconds (e.g. 1800 or 3600). The
// package provides a radix-2 FFT for power-of-two sizes, a Bluestein
// chirp-z transform for every other size, cubic-spline interpolation onto
// the 1 Hz grid, and the circular moving average of the change stage. The
// period estimators the DFT is compared against (autocorrelation,
// Lomb-Scargle) and the STFT view of Fig. 12 are internal/experiments'.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x:
//
//	X[k] = sum_{n=0}^{N-1} x[n] * exp(-2πi·kn/N)
//
// It runs a one-shot transform core for len(x) — radix-2 when that is a
// power of two, Bluestein's algorithm otherwise; repeated transforms of
// one length belong on an FFTPlan, which shares the core's tables. The
// input is not modified. An empty input yields an empty output.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := append([]complex128(nil), x...)
	core := newCplanCore(n)
	var work []complex128
	if !core.pow2 {
		work = make([]complex128, core.m)
	}
	core.transform(out, work)
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum of length len(x).
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// fftRadix2 computes an in-place iterative Cooley-Tukey FFT. len(x) must be
// a power of two. If inverse is true the conjugate transform (no 1/N
// normalisation) is computed.
func fftRadix2(x []complex128, inverse bool) {
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
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
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

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
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
