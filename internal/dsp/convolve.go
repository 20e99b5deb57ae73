package dsp

import "fmt"

// CircularMovingAverageInto computes the moving average of a periodic
// signal x with the given window length, treating x as one full cycle so
// the window wraps around. out[i] is the mean of x[i], x[i+1], ...,
// x[i+window-1] (indices mod len(x)). This is the paper's sliding-window
// convolution over superposed (single-cycle) data. It returns an error if
// window is not in [1, len(x)]. out is dst grown as needed, so repeated
// scans over candidate window lengths reuse one buffer; dst must not
// alias x.
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
