package stats

import (
	"fmt"
	"math"
)

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// Total returns the total number of observations, including out-of-range.
func (h *Histogram) Total() int {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Inverse returns the smallest sample value v with P(X <= v) >= p.
func (e *ECDF) Inverse(p float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: probability %v out of [0,1]", p)
	}
	i := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i], nil
}

// Points returns the (value, probability) support of the ECDF, one entry
// per sample, useful for emitting plot series.
func (e *ECDF) Points() (xs, ps []float64) {
	xs = append([]float64(nil), e.sorted...)
	ps = make([]float64, len(xs))
	for i := range xs {
		ps[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ps
}

// Min returns the minimum of xs, or an error if xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs, or an error if xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// PDF evaluates the normal density at x.
func (f NormalFit) PDF(x float64) float64 {
	if f.Sigma <= 0 {
		return math.NaN()
	}
	z := (x - f.Mu) / f.Sigma
	return math.Exp(-z*z/2) / (f.Sigma * math.Sqrt(2*math.Pi))
}
