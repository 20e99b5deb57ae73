package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-width binned counter over [Min, Max). Values outside
// the range are tallied in Under/Over rather than dropped, so totals are
// conserved — the Fig. 2 style distributions need exact record accounting.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Under    int
	Over     int
	width    float64
}

// NewHistogram returns a histogram with nbins equal-width bins over
// [min, max). It panics if the range or bin count is not positive, since a
// histogram without extent is a programming error.
func NewHistogram(min, max float64, nbins int) *Histogram {
	if nbins <= 0 || !(max > min) {
		panic(fmt.Sprintf("stats: bad histogram spec [%v,%v) x%d", min, max, nbins))
	}
	return &Histogram{
		Min:    min,
		Max:    max,
		Counts: make([]int, nbins),
		width:  (max - min) / float64(nbins),
	}
}

// Add tallies one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN tallies n observations of the same value.
func (h *Histogram) AddN(x float64, n int) {
	switch {
	case x < h.Min:
		h.Under += n
	case x >= h.Max:
		h.Over += n
	default:
		i := int((x - h.Min) / h.width)
		if i >= len(h.Counts) { // guard float edge at x ~= Max
			i = len(h.Counts) - 1
		}
		h.Counts[i] += n
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.width
}

// MaxBin returns the index of the fullest bin (first on ties) and its count.
func (h *Histogram) MaxBin() (int, int) {
	bi, bc := 0, h.Counts[0]
	for i, c := range h.Counts {
		if c > bc {
			bi, bc = i, c
		}
	}
	return bi, bc
}

// ASCII renders a simple fixed-width bar chart of the histogram, one bin
// per row, suitable for experiment logs.
func (h *Histogram) ASCII(barWidth int) string {
	_, maxC := h.MaxBin()
	if maxC == 0 {
		maxC = 1
	}
	var b strings.Builder
	for i, c := range h.Counts {
		n := c * barWidth / maxC
		fmt.Fprintf(&b, "%10.2f |%-*s| %d\n", h.BinCenter(i), barWidth, strings.Repeat("#", n), c)
	}
	return b.String()
}

// ECDF is an empirical cumulative distribution function built from a
// sample. It answers P(X <= x) and inverse-CDF queries.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied, then sorted).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the empirical probability P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}
