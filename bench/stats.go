package main

import (
	"math"
	"sort"

	"taxilight/internal/stats"
)

// percentileLadder is what a tail metric falls back through when the
// sample is too small for the percentile it was asked for.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// supportedPercentile returns the highest rung of the ladder that is at
// most want and has at least ten of the n samples beyond it; with fewer
// than twenty samples only the median is left.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// quantile is the p-th percentile (0..100) of xs by linear interpolation
// between order statistics; NaN for an empty sample, which the result line
// refuses.
func quantile(xs []float64, p float64) float64 {
	v, err := stats.Quantile(xs, p/100)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// tail returns the want-th percentile of xs, or the highest one the
// sample supports, together with the percentile used.
func tail(xs []float64, want float64) (value, used float64) {
	used = supportedPercentile(len(xs), want)
	return quantile(xs, used), used
}

// mean is the arithmetic mean, 0 for an empty sample (a probe that found
// nothing to time).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the driver holds every end-to-end metric to.
func quartileSpread(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return c[j-1] + (pos-float64(j))*(c[j]-c[j-1])
	}
	med := median(c)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
