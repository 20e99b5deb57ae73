package geo

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// Length returns the total polyline length in metres.
func (p Polyline) Length() float64 {
	total := 0.0
	for i := 1; i < len(p); i++ {
		total += p[i].Sub(p[i-1]).Norm()
	}
	return total
}

// At returns the point a fraction t in [0, 1] along the polyline by arc
// length. Degenerate polylines return their first point.
func (p Polyline) At(t float64) XY {
	if len(p) == 0 {
		return XY{}
	}
	if len(p) == 1 {
		return p[0]
	}
	if t <= 0 {
		return p[0]
	}
	if t >= 1 {
		return p[len(p)-1]
	}
	target := t * p.Length()
	walked := 0.0
	for i := 1; i < len(p); i++ {
		seg := p[i].Sub(p[i-1]).Norm()
		if walked+seg >= target {
			if seg == 0 {
				return p[i]
			}
			f := (target - walked) / seg
			return p[i-1].Add(p[i].Sub(p[i-1]).Scale(f))
		}
		walked += seg
	}
	return p[len(p)-1]
}
