package dsp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrInsufficientData is returned when too few points exist to interpolate.
var ErrInsufficientData = errors.New("dsp: insufficient data points")

// Sample is one irregular time-domain observation.
type Sample struct {
	T float64 // seconds
	V float64 // value (taxi speed in km/h in this project)
}

// SortSamples orders samples by time in place (stable). The comparator is
// the three-way form of `<` — not cmp.Compare, which would move NaN times
// to the front — so the order is the one sort.SliceStable with `<` gave.
func SortSamples(s []Sample) {
	slices.SortStableFunc(s, func(a, b Sample) int {
		switch {
		case a.T < b.T:
			return -1
		case b.T < a.T:
			return 1
		}
		return 0
	})
}

// MergeDuplicateTimes collapses samples that share (after truncation to
// whole seconds) the same timestamp into a single sample holding the mean
// value, as the paper prescribes for redundant same-second reports. The
// input must be sorted by time; the result is sorted and strictly
// increasing in truncated time.
func MergeDuplicateTimes(s []Sample) []Sample {
	if len(s) == 0 {
		return nil
	}
	return mergeDuplicateTimesTo(make([]Sample, 0, len(s)), s)
}

// MergeDuplicateTimesInPlace is MergeDuplicateTimes writing the merged
// samples into s's own backing array, for callers that own s and reuse it
// across rounds. Safe because each merged group is written at or before
// the position of its first source sample.
func MergeDuplicateTimesInPlace(s []Sample) []Sample {
	if len(s) == 0 {
		return nil
	}
	return mergeDuplicateTimesTo(s[:0], s)
}

func mergeDuplicateTimesTo(out, s []Sample) []Sample {
	curT := float64(int64(s[0].T))
	sum, n := s[0].V, 1
	for _, p := range s[1:] {
		tt := float64(int64(p.T))
		if tt == curT {
			sum += p.V
			n++
			continue
		}
		out = append(out, Sample{T: curT, V: sum / float64(n)})
		curT, sum, n = tt, p.V, 1
	}
	out = append(out, Sample{T: curT, V: sum / float64(n)})
	return out
}

// grow returns buf resized to n elements, reusing its backing array when
// the capacity allows. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// CubicSpline is a natural cubic spline through a set of strictly
// increasing knots. It matches the paper's choice of spline interpolation
// for reconstructing a smooth speed signal from sparse samples. A zero
// CubicSpline may be refitted repeatedly with Fit, reusing its buffers.
type CubicSpline struct {
	xs, ys []float64
	c2, c3 []float64 // second/third-order coefficients per interval
	c1     []float64
	// fit scratch, reused across Fit calls
	h, m, diag, upper, rhs []float64
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

// Fit refits the spline to pts under the same contract as NewCubicSpline,
// reusing the spline's internal buffers — the zero-allocation path for
// callers that resample fresh windows every round.
func (s *CubicSpline) Fit(pts []Sample) error {
	n := len(pts)
	if n < 2 {
		return ErrInsufficientData
	}
	s.xs = grow(s.xs, n)
	s.ys = grow(s.ys, n)
	for i, p := range pts {
		s.xs[i] = p.T
		s.ys[i] = p.V
		if i > 0 && s.xs[i] <= s.xs[i-1] {
			return fmt.Errorf("dsp: non-increasing knot at index %d (%v after %v)", i, s.xs[i], s.xs[i-1])
		}
	}
	s.fit()
	return nil
}

// fit solves the tridiagonal system for the natural spline second
// derivatives via the Thomas algorithm.
func (s *CubicSpline) fit() {
	n := len(s.xs)
	h := grow(s.h, n-1)
	s.h = h
	for i := 0; i < n-1; i++ {
		h[i] = s.xs[i+1] - s.xs[i]
	}
	// Second derivatives m[0..n-1]; natural: m[0] = m[n-1] = 0.
	m := grow(s.m, n)
	s.m = m
	m[0], m[n-1] = 0, 0
	if n > 2 {
		// Tridiagonal system for interior second derivatives.
		diag := grow(s.diag, n-2)
		upper := grow(s.upper, n-2)
		rhs := grow(s.rhs, n-2)
		s.diag, s.upper, s.rhs = diag, upper, rhs
		for i := 1; i < n-1; i++ {
			diag[i-1] = 2 * (h[i-1] + h[i])
			if i < n-2 {
				upper[i-1] = h[i]
			}
			rhs[i-1] = 6 * ((s.ys[i+1]-s.ys[i])/h[i] - (s.ys[i]-s.ys[i-1])/h[i-1])
		}
		// Thomas forward sweep (lower diagonal equals h[i] as well).
		for i := 1; i < n-2; i++ {
			w := h[i] / diag[i-1]
			diag[i] -= w * upper[i-1]
			rhs[i] -= w * rhs[i-1]
		}
		for i := n - 3; i >= 0; i-- {
			m[i+1] = rhs[i]
			if i < n-3 {
				m[i+1] -= upper[i] * m[i+2]
			}
			m[i+1] /= diag[i]
		}
	}
	s.c1 = grow(s.c1, n-1)
	s.c2 = grow(s.c2, n-1)
	s.c3 = grow(s.c3, n-1)
	for i := 0; i < n-1; i++ {
		s.c1[i] = (s.ys[i+1]-s.ys[i])/h[i] - h[i]*(2*m[i]+m[i+1])/6
		s.c2[i] = m[i] / 2
		s.c3[i] = (m[i+1] - m[i]) / (6 * h[i])
	}
}

// Domain returns the time span [min, max] covered by the spline knots.
func (s *CubicSpline) Domain() (float64, float64) {
	return s.xs[0], s.xs[len(s.xs)-1]
}

// At evaluates the spline at time t. Outside the knot range the boundary
// cubic is extrapolated.
func (s *CubicSpline) At(t float64) float64 {
	i := sort.SearchFloat64s(s.xs, t)
	switch {
	case i == 0:
		i = 0
	case i >= len(s.xs):
		i = len(s.xs) - 2
	default:
		i--
	}
	dx := t - s.xs[i]
	return s.ys[i] + dx*(s.c1[i]+dx*(s.c2[i]+dx*s.c3[i]))
}

// ResampleSpline interpolates irregular samples onto a regular 1-unit grid
// spanning [t0, t1] inclusive using a natural cubic spline, producing the
// uniformly sampled signal the DFT step requires. The samples must be
// sorted with strictly increasing times. The paper notes interpolated
// speeds may go negative; they are deliberately left untouched because
// only the periodicity matters.
func ResampleSpline(pts []Sample, t0, t1 float64) ([]float64, error) {
	var r Resampler
	return r.Spline(pts, t0, t1)
}

// ResampleLinear is the linear-interpolation counterpart of
// ResampleSpline, kept for the interpolation ablation study.
func ResampleLinear(pts []Sample, t0, t1 float64) ([]float64, error) {
	var r Resampler
	return r.Linear(pts, t0, t1)
}

func linearAt(pts []Sample) func(float64) float64 {
	return func(t float64) float64 {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= t })
		switch {
		case i == 0:
			return pts[0].V
		case i == len(pts):
			return pts[len(pts)-1].V
		}
		a, b := pts[i-1], pts[i]
		if b.T == a.T {
			return a.V
		}
		f := (t - a.T) / (b.T - a.T)
		return a.V + f*(b.V-a.V)
	}
}

// ResampleHold is zero-order hold resampling (last value carried forward),
// the crudest baseline in the interpolation ablation.
func ResampleHold(pts []Sample, t0, t1 float64) ([]float64, error) {
	var r Resampler
	return r.Hold(pts, t0, t1)
}

func holdAt(pts []Sample) func(float64) float64 {
	return func(t float64) float64 {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
		if i == 0 {
			return pts[0].V
		}
		return pts[i-1].V
	}
}

// Resampler owns the grid and spline-fit buffers for repeated
// irregular-to-regular resampling rounds, so a steady-state estimation
// tick reuses one allocation set per worker instead of re-allocating per
// approach. The slice returned by each method is owned by the Resampler
// and overwritten by the next call. Not safe for concurrent use.
type Resampler struct {
	spline CubicSpline
	grid   []float64
}

// Cap is the most elements any of the Resampler's buffers has room for,
// so an owner can tell when one large call has left it oversized.
func (r *Resampler) Cap() int {
	s := &r.spline
	return max(cap(r.grid), cap(s.xs), cap(s.ys), cap(s.c1), cap(s.c2), cap(s.c3),
		cap(s.h), cap(s.m), cap(s.diag), cap(s.upper), cap(s.rhs))
}

// Spline resamples pts onto the 1-unit grid spanning [t0, t1] with a
// natural cubic spline, under the same contract as ResampleSpline.
func (r *Resampler) Spline(pts []Sample, t0, t1 float64) ([]float64, error) {
	if err := r.spline.Fit(pts); err != nil {
		return nil, err
	}
	return r.sampleGrid(r.spline.At, t0, t1)
}

// Linear is the reusable-buffer counterpart of ResampleLinear.
func (r *Resampler) Linear(pts []Sample, t0, t1 float64) ([]float64, error) {
	if len(pts) < 2 {
		return nil, ErrInsufficientData
	}
	return r.sampleGrid(linearAt(pts), t0, t1)
}

// Hold is the reusable-buffer counterpart of ResampleHold.
func (r *Resampler) Hold(pts []Sample, t0, t1 float64) ([]float64, error) {
	if len(pts) < 1 {
		return nil, ErrInsufficientData
	}
	return r.sampleGrid(holdAt(pts), t0, t1)
}

func (r *Resampler) sampleGrid(at func(float64) float64, t0, t1 float64) ([]float64, error) {
	if t1 < t0 {
		return nil, fmt.Errorf("dsp: inverted grid [%v, %v]", t0, t1)
	}
	n := int(t1-t0) + 1
	r.grid = grow(r.grid, n)
	for i := 0; i < n; i++ {
		r.grid[i] = at(t0 + float64(i))
	}
	return r.grid, nil
}
