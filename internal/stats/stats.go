// Package stats implements the small statistics toolkit the paper's data
// analysis relies on: descriptive moments, histograms, empirical CDFs,
// quantiles and normal fits. Everything is allocation-light and
// deterministic so that experiment harnesses can reproduce the paper's
// Fig. 2 and Fig. 14 style summaries exactly.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs, or NaN if xs
// has fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// NormalFit holds the parameters of a fitted normal distribution.
type NormalFit struct {
	Mu, Sigma float64
}

// FitNormal estimates mu and sigma from xs by the method of moments.
func FitNormal(xs []float64) (NormalFit, error) {
	if len(xs) < 2 {
		return NormalFit{}, ErrEmpty
	}
	return NormalFit{Mu: Mean(xs), Sigma: StdDev(xs)}, nil
}

// CDF evaluates the normal cumulative distribution at x.
func (f NormalFit) CDF(x float64) float64 {
	if f.Sigma <= 0 {
		return math.NaN()
	}
	return 0.5 * math.Erfc(-(x-f.Mu)/(f.Sigma*math.Sqrt2))
}
