package roadnet

import (
	"math"

	"taxilight/internal/geo"
)

// spatialIndex is a uniform grid over the network bounding box. Cells hold
// the IDs of segments whose padded bounding boxes intersect the cell, plus
// the signalised nodes inside the cell. Queries expand ring by ring until
// a hit is provably nearest, which keeps nearest-neighbour lookups O(1) on
// the uniformly dense city grids used here.
//
// A query of radius under one cell reads rings 0 and 1 only, where a
// segment is listed in up to nine cells. For that neighbourhood each cell
// also keeps one list: the segments of rings 0-1 each once, in the order
// a ring-by-ring walk first meets them, so every exact tie still goes to
// the same segment. All lists share one ID array: cell c's is
// near[nearOff[2c]:nearOff[2c+2]], and its ring 0 ends at nearOff[2c+1].
type spatialIndex struct {
	bbox   geo.BBox
	cell   float64
	nx, ny int
	segs   [][]SegmentID
	lights [][]NodeID
	net    *Network
	// near and nearOff are every cell's neighbourhood list, as above.
	near, nearOff []int32
	// boxes is each segment's bounding box padded by one metre, the
	// slack that keeps rounding in a closest point from turning a
	// candidate away.
	boxes []geo.BBox
}

// indexCellSize is the grid pitch in metres; a few hundred metres keeps
// per-cell lists short while covering typical GPS error radii in one ring.
const indexCellSize = 250.0

func buildIndex(net *Network) *spatialIndex {
	bb := net.BBox().Pad(indexCellSize)
	nx := int(math.Ceil(bb.Width()/indexCellSize)) + 1
	ny := int(math.Ceil(bb.Height()/indexCellSize)) + 1
	idx := &spatialIndex{
		bbox: bb, cell: indexCellSize, nx: nx, ny: ny,
		segs:   make([][]SegmentID, nx*ny),
		boxes:  make([]geo.BBox, len(net.segments)),
		lights: make([][]NodeID, nx*ny),
		net:    net,
	}
	for _, s := range net.segments {
		sb := geo.NewBBox(s.geom.A, s.geom.B).Pad(1)
		idx.boxes[s.ID] = sb
		x0, y0 := idx.cellOf(geo.XY{X: sb.MinX, Y: sb.MinY})
		x1, y1 := idx.cellOf(geo.XY{X: sb.MaxX, Y: sb.MaxY})
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				c := cy*nx + cx
				idx.segs[c] = append(idx.segs[c], s.ID)
			}
		}
	}
	for _, nd := range net.nodes {
		if !nd.Signalised() {
			continue
		}
		cx, cy := idx.cellOf(nd.Pos)
		c := cy*nx + cx
		idx.lights[c] = append(idx.lights[c], nd.ID)
	}
	idx.buildNear()
	return idx
}

// buildNear lists, per cell, the segments of rings 0-1 once each, in
// first-visit order, with the end of ring 0 marked.
func (idx *spatialIndex) buildNear() {
	seen := make([]int, len(idx.net.segments)) // cell+1 that last listed a segment
	idx.nearOff = make([]int32, 0, 2*len(idx.segs)+1)
	for c := range idx.segs {
		add := func(cell int) {
			for _, sid := range idx.segs[cell] {
				if seen[sid] != c+1 {
					seen[sid] = c + 1
					idx.near = append(idx.near, int32(sid))
				}
			}
		}
		idx.nearOff = append(idx.nearOff, int32(len(idx.near)))
		add(c)
		idx.nearOff = append(idx.nearOff, int32(len(idx.near)))
		idx.forRing(c%idx.nx, c/idx.nx, 1, add)
	}
	idx.nearOff = append(idx.nearOff, int32(len(idx.near)))
}

func (idx *spatialIndex) cellOf(p geo.XY) (int, int) {
	cx := int((p.X - idx.bbox.MinX) / idx.cell)
	cy := int((p.Y - idx.bbox.MinY) / idx.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= idx.nx {
		cx = idx.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= idx.ny {
		cy = idx.ny - 1
	}
	return cx, cy
}

// snap scans outward rings of cells around q for the segment whose
// closest point to q is nearest, and computes that point once per
// candidate. cheap is asked about a segment before any geometry; near is
// asked about the closest point found on it, as a fraction along the
// segment. Either may be nil.
func (idx *spatialIndex) snap(q geo.XY, maxDist float64, cheap func(*Segment) bool, near func(s *Segment, frac float64) bool) (Snap, bool) {
	cx, cy := idx.cellOf(q)
	// A point within maxDist of q lies at most int(maxDist/cell)+1 cells
	// from q's cell along either axis, and a segment is listed in every
	// cell its bounding box touches, so in the cell of its closest point.
	maxRing := int(maxDist/idx.cell) + 1
	var best Snap
	best.Dist = math.Inf(1)
	// Nothing farther than lim from q can win: it would be neither nearer
	// than best nor within maxDist. A segment whose box lies farther than
	// that along either axis is passed over before any other test; the
	// box's metre of padding absorbs the rounding of a closest point.
	lim := maxDist
	consider := func(sid SegmentID) {
		b := &idx.boxes[sid]
		if q.X < b.MinX-lim || q.X > b.MaxX+lim || q.Y < b.MinY-lim || q.Y > b.MaxY+lim {
			return
		}
		s := idx.net.segments[sid]
		if cheap != nil && !cheap(s) {
			return
		}
		pos, frac := s.geom.ClosestPoint(q)
		if near != nil && !near(s, frac) {
			return
		}
		if d := pos.Sub(q).Norm(); d < best.Dist {
			best = Snap{Seg: s, Pos: pos, Frac: frac, Dist: d}
			lim = min(d, maxDist)
		}
	}
	// Rings 0 and 1, each segment once. Once a hit is closer than the
	// inner edge of the next ring, no farther cell can contain anything
	// nearer: after ring 0 that is a hit at distance 0.
	c := cy*idx.nx + cx
	off := idx.nearOff[2*c : 2*c+3]
	for _, sid := range idx.near[off[0]:off[1]] {
		consider(SegmentID(sid))
	}
	if best.Seg == nil || best.Dist > 0 {
		for _, sid := range idx.near[off[1]:off[2]] {
			consider(SegmentID(sid))
		}
	}
	for ring := 2; ring <= maxRing; ring++ {
		if best.Seg != nil && best.Dist <= float64(ring-1)*idx.cell {
			break
		}
		idx.forRing(cx, cy, ring, func(c int) {
			for _, sid := range idx.segs[c] {
				consider(sid)
			}
		})
	}
	if best.Seg == nil || best.Dist > maxDist {
		return Snap{}, false
	}
	return best, true
}

// forRing visits every in-bounds cell on the square ring of the given
// radius (in cells) around (cx, cy). Ring 0 is the centre cell itself.
func (idx *spatialIndex) forRing(cx, cy, ring int, visit func(cell int)) {
	if ring == 0 {
		visit(cy*idx.nx + cx)
		return
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := x0; x <= x1; x++ {
		for _, y := range []int{y0, y1} {
			if x >= 0 && x < idx.nx && y >= 0 && y < idx.ny {
				visit(y*idx.nx + x)
			}
		}
	}
	for y := y0 + 1; y <= y1-1; y++ {
		for _, x := range []int{x0, x1} {
			if x >= 0 && x < idx.nx && y >= 0 && y < idx.ny {
				visit(y*idx.nx + x)
			}
		}
	}
}
