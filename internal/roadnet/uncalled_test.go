package roadnet

import (
	"taxilight/internal/geo"
)

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// NearestSegmentHeading behaves like NearestSegment but only considers
// segments whose driving direction is within maxHeadingDiff degrees of
// heading — the Fig. 5 rule that reassigns a point to the next segment with
// consistent orientation rather than the geometrically nearest one.
func (n *Network) NearestSegmentHeading(q geo.XY, maxDist, heading, maxHeadingDiff float64) (seg *Segment, dist float64, ok bool) {
	sn, ok := n.Snap(q, maxDist, func(s *Segment) bool {
		return geo.HeadingDiff(s.heading, heading) <= maxHeadingDiff
	}, nil)
	return sn.Seg, sn.Dist, ok
}

// OppositeOf reports whether o is the reverse directed twin of s (same
// endpoints, swapped).
func (s *Segment) OppositeOf(o *Segment) bool {
	return s.From == o.To && s.To == o.From
}
