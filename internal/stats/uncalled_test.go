package stats

import (
	"fmt"
	"math"
)

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// WeightedMean returns sum(w_i * x_i) / sum(w_i). It returns NaN when the
// total weight is zero. Used by the border-interval red-light estimator,
// where the weights are record counts per interval.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: WeightedMean length mismatch %d vs %d", len(xs), len(ws)))
	}
	var sw, swx float64
	for i, x := range xs {
		sw += ws[i]
		swx += ws[i] * x
	}
	if sw == 0 {
		return math.NaN()
	}
	return swx / sw
}
