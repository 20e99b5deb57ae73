package geo

// Polyline is an ordered sequence of planar points, the shape of an OSM
// way between intersections.
type Polyline []XY

// Simplify returns the Douglas-Peucker simplification of the polyline:
// the minimal subset of vertices such that no removed vertex deviates
// more than tolerance metres from the simplified shape. Endpoints are
// always kept. OSM ways carry dense shape points; simplifying them before
// building road segments keeps the spatial index and map matcher fast
// without visibly moving the road.
func (p Polyline) Simplify(tolerance float64) Polyline {
	if len(p) <= 2 || tolerance <= 0 {
		return append(Polyline(nil), p...)
	}
	keep := make([]bool, len(p))
	keep[0], keep[len(p)-1] = true, true
	douglasPeucker(p, 0, len(p)-1, tolerance, keep)
	out := make(Polyline, 0, len(p))
	for i, k := range keep {
		if k {
			out = append(out, p[i])
		}
	}
	return out
}

func douglasPeucker(p Polyline, lo, hi int, tol float64, keep []bool) {
	if hi <= lo+1 {
		return
	}
	seg := Segment{A: p[lo], B: p[hi]}
	worst, worstD := -1, tol
	for i := lo + 1; i < hi; i++ {
		if d := seg.DistanceTo(p[i]); d > worstD {
			worst, worstD = i, d
		}
	}
	if worst < 0 {
		return
	}
	keep[worst] = true
	douglasPeucker(p, lo, worst, tol, keep)
	douglasPeucker(p, worst, hi, tol, keep)
}
