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

// NearestSegment returns the segment closest to the planar point q within
// maxDist metres, together with the distance. ok is false when nothing is
// within range. The network must be finalized.
func (n *Network) NearestSegment(q geo.XY, maxDist float64) (seg *Segment, dist float64, ok bool) {
	sn, ok := n.Snap(q, maxDist, nil, nil)
	return sn.Seg, sn.Dist, ok
}

// NearestLight returns the signalised node nearest to q within maxDist
// metres. ok is false when no light is in range.
func (n *Network) NearestLight(q geo.XY, maxDist float64) (node *Node, dist float64, ok bool) {
	n.mustFinal()
	return n.index.nearestLight(q, maxDist)
}

func (idx *spatialIndex) nearestLight(q geo.XY, maxDist float64) (*Node, float64, bool) {
	cx, cy := idx.cellOf(q)
	maxRing := int(maxDist/idx.cell) + 1 // as in snap
	var best *Node
	bestD := math.Inf(1)
	for ring := 0; ring <= maxRing; ring++ {
		if best != nil && bestD <= float64(ring-1)*idx.cell {
			break
		}
		idx.forRing(cx, cy, ring, func(c int) {
			for _, nid := range idx.lights[c] {
				nd := idx.net.nodes[nid]
				if d := nd.Pos.Sub(q).Norm(); d < bestD {
					best, bestD = nd, d
				}
			}
		})
	}
	if best == nil || bestD > maxDist {
		return nil, 0, false
	}
	return best, bestD, true
}
