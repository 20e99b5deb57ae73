package dsp

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// Domain returns the time span [min, max] covered by the spline knots.
func (s *CubicSpline) Domain() (float64, float64) {
	return s.xs[0], s.xs[len(s.xs)-1]
}

// N returns the transform length the plan was built for.
func (p *FFTPlan) N() int { return p.core.n }
