package dsp

import (
	"math"
	"math/cmplx"
)

// The package's serving paths reuse buffers (FFTPlan, Resampler,
// CircularMovingAverageInto, CubicSpline.Fit). The tests compare them
// against the textbook transform and call them through the one-shot,
// allocating forms below.

// DFTNaive is the O(N²) textbook transform, kept as a cross-check oracle
// for the fast paths and for the ablation benchmarks.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// Magnitudes returns |x[i]| for every element of the spectrum.
func Magnitudes(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Abs(v)
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

// NewCubicSpline fits a natural cubic spline to the given samples. Samples
// must be sorted by time with strictly increasing timestamps (use
// SortSamples plus MergeDuplicateTimes first). At least two points are
// required.
func NewCubicSpline(pts []Sample) (*CubicSpline, error) {
	s := &CubicSpline{}
	if err := s.Fit(pts); err != nil {
		return nil, err
	}
	return s, nil
}
