package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Autocorrelation returns the biased sample autocorrelation of x for lags
// 0..maxLag, normalised so that lag 0 equals 1. It is computed via FFT in
// O(n log n). An all-constant signal yields NaN beyond lag 0 (zero
// variance). Autocorrelation is the classical alternative to spectral
// peak-picking for period estimation and serves as the baseline
// comparator for the paper's DFT method.
func Autocorrelation(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("dsp: empty signal")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("dsp: maxLag %d outside [0, %d)", maxLag, n)
	}
	d := Detrend(x)
	// Zero-pad to avoid circular wrap-around.
	m := nextPow2(2 * n)
	buf := make([]complex128, m)
	for i, v := range d {
		buf[i] = complex(v, 0)
	}
	fftRadix2(buf, false)
	for i := range buf {
		buf[i] *= cmplx.Conj(buf[i])
	}
	fftRadix2(buf, true)
	out := make([]float64, maxLag+1)
	r0 := real(buf[0]) / float64(m)
	if r0 == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		out[0] = 1
		return out, nil
	}
	for k := 0; k <= maxLag; k++ {
		out[k] = (real(buf[k]) / float64(m)) / r0
	}
	return out, nil
}

// DominantLag finds the lag in [minLag, maxLag] with the highest
// autocorrelation that is also a local maximum (so the slowly decaying
// shoulder next to lag 0 cannot win). It returns an error when no local
// maximum exists in the range.
func DominantLag(acf []float64, minLag, maxLag int) (int, error) {
	if minLag < 1 || maxLag >= len(acf) || minLag > maxLag {
		return 0, fmt.Errorf("dsp: lag range [%d, %d] invalid for acf of length %d", minLag, maxLag, len(acf))
	}
	best, bestVal := -1, math.Inf(-1)
	for k := minLag; k <= maxLag; k++ {
		if k == 0 || k+1 >= len(acf) {
			continue
		}
		if acf[k] >= acf[k-1] && acf[k] >= acf[k+1] && acf[k] > bestVal {
			best, bestVal = k, acf[k]
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("dsp: no local autocorrelation maximum in [%d, %d]", minLag, maxLag)
	}
	return best, nil
}
