// Package roadnet models the digital road map the pipeline runs against:
// nodes (intersections and dead ends), directed road segments, signalised
// intersections, a spatial index for nearest-segment and nearest-light
// queries (the map-matching substrate replacing OpenStreetMap), a
// parametric grid-city generator, and shortest-path routing.
package roadnet

import (
	"fmt"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

// NodeID identifies a node within a Network.
type NodeID int

// SegmentID identifies a directed segment within a Network.
type SegmentID int

// Node is a point in the road graph. Signalised nodes carry a non-nil
// Light whose controller governs every approach of the intersection.
type Node struct {
	ID    NodeID
	Pos   geo.XY
	Light *lights.Intersection // nil for unsignalised nodes
	// Out lists the IDs of segments leaving this node.
	Out []SegmentID
	// In lists the IDs of segments entering this node.
	In []SegmentID
}

// Signalised reports whether the node has a traffic light.
func (n *Node) Signalised() bool { return n.Light != nil }

// Segment is one directed road segment between two nodes. A two-way road
// is two Segments with swapped endpoints.
type Segment struct {
	ID         SegmentID
	From, To   NodeID
	Name       string  // human-readable road name (e.g. "ShenNan E3")
	SpeedLimit float64 // free-flow speed in m/s
	geom       geo.Segment
	length     float64
	heading    float64
}

// Geom returns the segment's planar geometry.
func (s *Segment) Geom() geo.Segment { return s.geom }

// Length returns the segment length in metres.
func (s *Segment) Length() float64 { return s.length }

// Heading returns the driving direction in degrees clockwise from north.
func (s *Segment) Heading() float64 { return s.heading }

// Approach returns which intersection approach (NS or EW) this segment
// feeds, judged by its heading: headings within 45° of north or south are
// NorthSouth, otherwise EastWest.
func (s *Segment) Approach() lights.Approach {
	h := s.heading
	if h >= 315 || h < 45 || (h >= 135 && h < 225) {
		return lights.NorthSouth
	}
	return lights.EastWest
}

// PointAt returns the planar position a fraction t in [0,1] along the
// segment from From to To.
func (s *Segment) PointAt(t float64) geo.XY {
	d := s.geom.B.Sub(s.geom.A)
	return s.geom.A.Add(d.Scale(t))
}

// Network is an immutable-after-build road graph. Construct with
// NewNetwork, add nodes and segments, then call Finalize before use.
type Network struct {
	nodes     []*Node
	segments  []*Segment
	proj      *geo.Projection
	index     *spatialIndex
	finalized bool
}

// NewNetwork returns an empty network whose planar frame is centred at
// origin (a WGS-84 point, e.g. downtown Shenzhen).
func NewNetwork(origin geo.Point) *Network {
	return &Network{proj: geo.NewProjection(origin)}
}

// Projection exposes the WGS-84 <-> planar mapping of the network.
func (n *Network) Projection() *geo.Projection { return n.proj }

// AddNode appends a node at the given planar position and returns its ID.
// light may be nil.
func (n *Network) AddNode(pos geo.XY, light *lights.Intersection) NodeID {
	if n.finalized {
		panic("roadnet: AddNode after Finalize")
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &Node{ID: id, Pos: pos, Light: light})
	return id
}

// AddSegment appends a directed segment and returns its ID. The speed
// limit is in m/s.
func (n *Network) AddSegment(from, to NodeID, name string, speedLimit float64) (SegmentID, error) {
	if n.finalized {
		panic("roadnet: AddSegment after Finalize")
	}
	if int(from) >= len(n.nodes) || int(to) >= len(n.nodes) || from < 0 || to < 0 {
		return 0, fmt.Errorf("roadnet: segment references unknown node %d -> %d", from, to)
	}
	if from == to {
		return 0, fmt.Errorf("roadnet: self-loop at node %d", from)
	}
	if speedLimit <= 0 {
		return 0, fmt.Errorf("roadnet: non-positive speed limit %v", speedLimit)
	}
	g := geo.Segment{A: n.nodes[from].Pos, B: n.nodes[to].Pos}
	id := SegmentID(len(n.segments))
	seg := &Segment{
		ID: id, From: from, To: to, Name: name, SpeedLimit: speedLimit,
		geom: g, length: g.Length(), heading: g.HeadingDeg(),
	}
	n.segments = append(n.segments, seg)
	n.nodes[from].Out = append(n.nodes[from].Out, id)
	n.nodes[to].In = append(n.nodes[to].In, id)
	return id, nil
}

// Finalize freezes the network and builds the spatial index. It must be
// called exactly once, after all nodes and segments are added.
func (n *Network) Finalize() error {
	if n.finalized {
		return fmt.Errorf("roadnet: already finalized")
	}
	if len(n.nodes) == 0 || len(n.segments) == 0 {
		return fmt.Errorf("roadnet: empty network")
	}
	n.index = buildIndex(n)
	n.finalized = true
	return nil
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumSegments returns the segment count.
func (n *Network) NumSegments() int { return len(n.segments) }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Segment returns the segment with the given ID.
func (n *Network) Segment(id SegmentID) *Segment { return n.segments[id] }

// Nodes iterates over all nodes.
func (n *Network) Nodes() []*Node { return n.nodes }

// Segments iterates over all segments.
func (n *Network) Segments() []*Segment { return n.segments }

// SignalisedNodes returns every node carrying a traffic light.
func (n *Network) SignalisedNodes() []*Node {
	var out []*Node
	for _, nd := range n.nodes {
		if nd.Signalised() {
			out = append(out, nd)
		}
	}
	return out
}

// Snap is a query point's closest position on one road segment.
type Snap struct {
	Seg  *Segment
	Pos  geo.XY  // the point of Seg closest to the query point
	Frac float64 // Pos as a fraction of the way from Seg.From to Seg.To
	Dist float64 // metres from the query point to Pos
}

// Snap returns q's closest position, within maxDist metres, on any
// segment both filters accept (nil accepts everything). cheap sees a
// segment before its geometry is looked at — tests on the segment alone
// belong there, where a rejection costs nothing; near sees the candidate's
// closest point as a fraction along it. Each candidate's closest point is
// computed once and returned with the winner, so a caller needs no
// second look at the geometry. The bool is false when nothing accepted
// is in range. The network must be finalized.
func (n *Network) Snap(q geo.XY, maxDist float64, cheap func(*Segment) bool, near func(s *Segment, frac float64) bool) (Snap, bool) {
	n.mustFinal()
	return n.index.snap(q, maxDist, cheap, near)
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

func (n *Network) mustFinal() {
	if !n.finalized {
		panic("roadnet: network not finalized")
	}
}

// BBox returns the bounding box of all node positions.
func (n *Network) BBox() geo.BBox {
	pts := make([]geo.XY, len(n.nodes))
	for i, nd := range n.nodes {
		pts[i] = nd.Pos
	}
	return geo.NewBBox(pts...)
}

// TravelTime returns the free-flow traversal time of a segment in seconds.
func (s *Segment) TravelTime() float64 { return s.length / s.SpeedLimit }
