package roadnet

import (
	"math"

	"taxilight/internal/geo"
)

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// PerpendicularAt reports whether s and o approach the same node from
// perpendicular roads (one NS, one EW) — the precondition for the paper's
// intersection-based enhancement.
func PerpendicularAt(s, o *Segment) bool {
	d := geo.HeadingDiff(s.Heading(), o.Heading())
	return math.Abs(d-90) <= 30
}

// Nodes returns the node sequence visited by the route, starting with the
// route's origin.
func (r Route) Nodes(net *Network) []NodeID {
	if len(r.Segments) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(r.Segments)+1)
	out = append(out, net.Segment(r.Segments[0]).From)
	for _, sid := range r.Segments {
		out = append(out, net.Segment(sid).To)
	}
	return out
}
