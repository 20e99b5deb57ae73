package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

// refNearestSegment is the index's nearest-segment query as it stood
// before snap replaced it, kept verbatim as snap's oracle: one filter
// that does whatever geometry it needs itself, DistanceTo on every
// survivor, and one ring more than a hit within maxDist can lie in.
func (idx *spatialIndex) refNearestSegment(q geo.XY, maxDist float64, filter func(*Segment) bool) (*Segment, float64, bool) {
	cx, cy := idx.cellOf(q)
	maxRing := int(maxDist/idx.cell) + 2
	var best *Segment
	bestD := math.Inf(1)
	for ring := 0; ring <= maxRing; ring++ {
		if best != nil && bestD <= float64(ring-1)*idx.cell {
			break
		}
		idx.forRing(cx, cy, ring, func(c int) {
			for _, sid := range idx.segs[c] {
				s := idx.net.segments[sid]
				if filter != nil && !filter(s) {
					continue
				}
				if d := s.geom.DistanceTo(q); d < bestD {
					best, bestD = s, d
				}
			}
		})
	}
	if best == nil || bestD > maxDist {
		return nil, 0, false
	}
	return best, bestD, true
}

// tangleNet is a network no grid generator makes: segments of every
// length and direction between random points, so bounding boxes cover
// cells their segment never enters and one segment is the nearest from
// many cells away.
func tangleNet(t testing.TB, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := NewNetwork(geo.Point{Lat: 22.543, Lon: 114.06})
	const nodes = 60
	for i := 0; i < nodes; i++ {
		var light *lights.Intersection
		if i%3 != 0 {
			light = &lights.Intersection{ID: i, Ctrl: lights.Static{S: lights.Schedule{Cycle: 90, Red: 40}}}
		}
		net.AddNode(geo.XY{X: rng.Float64() * 6000, Y: rng.Float64() * 6000}, light)
	}
	for i := 0; i < 150; i++ {
		a, b := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		if _, err := net.AddSegment(a, b, "tangle", 13.9); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // a two-way road: two segments at one distance from anywhere
			if _, err := net.AddSegment(b, a, "tangle", 13.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	return net
}

// snapNets are the networks the index is held to its oracles on.
func snapNets(t *testing.T) map[string]*Network {
	arterial := DefaultGridConfig()
	arterial.Rows, arterial.Cols, arterial.Spacing = 3, 3, 6000
	skewed := DefaultGridConfig()
	skewed.Spacing, skewed.PosJitter, skewed.RotationDeg = 600, 120, 31
	return map[string]*Network{
		"grid":     mustGrid(t, DefaultGridConfig()),
		"arterial": mustGrid(t, arterial),
		"skewed":   mustGrid(t, skewed),
		"tangle":   tangleNet(t, 5),
	}
}

// TestSnapMatchesReference holds snap to the query it replaced: the same
// segment out of every tie, the same distance to the bit, the same
// misses — with the filter whole in front of the geometry, and with its
// geometric half moved behind the one closest point snap computes. snap
// asks only about segments the reference asks about, and within one cell
// of q (every query of a radius under a cell) about each at most once.
// Beside random queries and GPS noise around roads it is asked at the
// seams of its neighbourhood list: exactly at every node and on every
// segment's midpoint (a hit at distance 0 in ring 0 ends the search
// there), at radii either side of one cell (where ring 2 joins), far off
// the index (clamped to its rim), and just past each end of each segment
// with maxDist the segment's own distance, where the rounding of a
// closest point can put it a hair nearer than its bounding box.
func TestSnapMatchesReference(t *testing.T) {
	points := 600
	if testing.Short() {
		points = 150
	}
	allRounded := 0
	for name, net := range snapNets(t) {
		idx := net.index
		rng := rand.New(rand.NewSource(17))
		bb := net.BBox().Pad(900) // some queries fall off the index's own padded box
		type query struct {
			q       geo.XY
			heading float64
		}
		var queries []query
		for i := 0; i < points; i++ {
			q := geo.XY{X: bb.MinX + rng.Float64()*bb.Width(), Y: bb.MinY + rng.Float64()*bb.Height()}
			if i%2 == 0 { // where taxis are: GPS noise around a point of a road
				s := net.segments[rng.Intn(len(net.segments))]
				q = s.PointAt(rng.Float64()).Add(geo.XY{X: rng.NormFloat64() * 40, Y: rng.NormFloat64() * 40})
			}
			queries = append(queries, query{q, rng.Float64() * 360})
		}
		var seams []geo.XY
		for _, nd := range net.nodes {
			seams = append(seams, nd.Pos)
		}
		for _, s := range net.segments {
			seams = append(seams, s.PointAt(0.5))
		}
		far := net.BBox().Pad(5000)
		for _, fx := range []float64{0, 0.5, 1} {
			for _, fy := range []float64{0, 0.5, 1} {
				seams = append(seams, geo.XY{X: far.MinX + fx*far.Width(), Y: far.MinY + fy*far.Height()})
			}
		}
		for _, q := range seams {
			queries = append(queries, query{q, rng.Float64() * 360})
		}
		zeroHits := 0
		for i, qh := range queries {
			q, heading := qh.q, qh.heading
			lightDist := []float64{150, 450, 5000}[i%3]
			signalised := func(s *Segment) bool { return net.Node(s.To).Signalised() }
			headed := func(s *Segment) bool { return geo.HeadingDiff(s.heading, heading) <= 30 }
			nearLight := func(s *Segment, frac float64) bool { return (1-frac)*s.length <= lightDist }
			for _, maxDist := range []float64{40, 120, 249.99, 250, 250.01, 251, 500, 800} {
				for fi, f := range []struct {
					cheap func(*Segment) bool
					near  func(*Segment, float64) bool
				}{
					{nil, nil},
					{headed, nil},
					{signalised, nearLight},
					{func(s *Segment) bool { return signalised(s) && headed(s) }, nearLight},
				} {
					sn, ok := checkSnap(t, idx, q, maxDist, f.cheap, f.near)
					if ok && sn.Dist == 0 && fi == 0 {
						zeroHits++
					}
				}
			}
		}
		if zeroHits == 0 {
			t.Fatalf("%s: no query hit a segment at distance 0", name)
		}
		// Just past either end of every segment, along each axis, asked
		// for that segment alone within exactly its own distance.
		rounded := 0
		for _, s := range net.segments {
			only := func(o *Segment) bool { return o == s }
			for _, end := range []geo.XY{s.geom.A, s.geom.B} {
				for _, off := range []geo.XY{{X: 3}, {X: -3}, {Y: 3}, {Y: -3}} {
					q := end.Add(off)
					_, d, ok := idx.refNearestSegment(q, 800, only)
					if !ok {
						t.Fatalf("%s: segment %d is not within 800 m of %v", name, s.ID, q)
					}
					checkSnap(t, idx, q, d, only, nil)
					if b := geo.NewBBox(s.geom.A, s.geom.B); q.X < b.MinX-d || q.X > b.MaxX+d || q.Y < b.MinY-d || q.Y > b.MaxY+d {
						rounded++ // a box without slack would turn the hit away
					}
				}
			}
		}
		allRounded += rounded
		t.Logf("%s: %d queries, %d hits at distance 0, %d rounding seams", name, len(queries), zeroHits, rounded)
	}
	if allRounded == 0 { // a grid's axis-aligned roads round exactly; the others must not all
		t.Fatal("no segment's closest point rounded nearer than its box")
	}
}

// checkSnap asks snap about q both ways the filters can be handed over
// and fails t unless each answer is the reference's and snap asked cheap
// about no segment the reference did not ask about, nor, for a radius
// under one cell, about any segment twice.
func checkSnap(t *testing.T, idx *spatialIndex, q geo.XY, maxDist float64, cheap func(*Segment) bool, near func(*Segment, float64) bool) (Snap, bool) {
	t.Helper()
	refAsked := make([]bool, len(idx.net.segments))
	whole := func(s *Segment) bool {
		refAsked[s.ID] = true
		if cheap != nil && !cheap(s) {
			return false
		}
		if near == nil {
			return true
		}
		_, frac := s.geom.ClosestPoint(q)
		return near(s, frac)
	}
	wantSeg, wantD, wantOK := idx.refNearestSegment(q, maxDist, whole)
	var sn Snap
	var ok bool
	for how, split := range map[string]bool{"filter in front": false, "filter split": true} {
		asked := make([]bool, len(idx.net.segments))
		c, n := whole, near
		if split {
			c, n = cheap, near
		} else {
			n = nil
		}
		counted := func(s *Segment) bool {
			if !refAsked[s.ID] || (asked[s.ID] && maxDist < idx.cell) {
				t.Fatalf("q %v, maxDist %v, %s: snap asks about segment %d again or beyond the reference", q, maxDist, how, s.ID)
			}
			asked[s.ID] = true
			return c == nil || c(s)
		}
		sn, ok = idx.snap(q, maxDist, counted, n)
		if ok != wantOK || sn.Seg != wantSeg || math.Float64bits(sn.Dist) != math.Float64bits(wantD) {
			t.Fatalf("q %v, maxDist %v, %s: snap (%v, %v, %v), reference (%v, %v, %v)",
				q, maxDist, how, sn.Seg, sn.Dist, ok, wantSeg, wantD, wantOK)
		}
		if !ok {
			if sn != (Snap{}) {
				t.Fatalf("q %v: a miss returned %+v", q, sn)
			}
			continue
		}
		if pos, frac := sn.Seg.geom.ClosestPoint(q); pos != sn.Pos || frac != sn.Frac {
			t.Fatalf("q %v: snap says (%v, %v), the segment's closest point is (%v, %v)", q, sn.Pos, sn.Frac, pos, frac)
		}
	}
	return sn, ok
}

// TestNearListsInFirstVisitOrder holds each cell's neighbourhood list to
// the walk it stands for: the segments rings 0 and 1 list, each where a
// ring-by-ring walk first meets it, and the mark at the end of ring 0 —
// the cell's own segments — where snap stops after a hit at distance 0.
func TestNearListsInFirstVisitOrder(t *testing.T) {
	for name, net := range snapNets(t) {
		idx := net.index
		if len(idx.nearOff) != 2*len(idx.segs)+1 {
			t.Fatalf("%s: %d offsets for %d cells", name, len(idx.nearOff), len(idx.segs))
		}
		for c := range idx.segs {
			var want []int32
			seen := map[SegmentID]bool{}
			walk := func(cell int) {
				for _, sid := range idx.segs[cell] {
					if !seen[sid] {
						seen[sid] = true
						want = append(want, int32(sid))
					}
				}
			}
			walk(c)
			ring0 := len(want)
			idx.forRing(c%idx.nx, c/idx.nx, 1, walk)
			off := idx.nearOff[2*c : 2*c+3]
			if got := idx.near[off[0]:off[2]]; !slices.Equal(got, want) || int(off[1]-off[0]) != ring0 {
				t.Fatalf("%s, cell %d: list %v with ring 0 ending at %d, want %v ending at %d", name, c, got, off[1]-off[0], want, ring0)
			}
		}
	}
}

// refNearestLight is nearestLight as it stood before its search radius
// was cut to snap's, kept verbatim as the oracle: one ring more than a
// light within maxDist can lie in.
func (idx *spatialIndex) refNearestLight(q geo.XY, maxDist float64) (*Node, float64, bool) {
	cx, cy := idx.cellOf(q)
	maxRing := int(maxDist/idx.cell) + 2
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

// TestNearestLightMatchesReference holds nearestLight to its old body on
// snap's networks: random points, points at every node and far off the
// index, radii either side of each cell edge and exactly each light's
// own distance.
func TestNearestLightMatchesReference(t *testing.T) {
	for name, net := range snapNets(t) {
		idx := net.index
		rng := rand.New(rand.NewSource(23))
		bb := net.BBox().Pad(900)
		var queries []geo.XY
		for i := 0; i < 400; i++ {
			queries = append(queries, geo.XY{X: bb.MinX + rng.Float64()*bb.Width(), Y: bb.MinY + rng.Float64()*bb.Height()})
		}
		for _, nd := range net.nodes {
			queries = append(queries, nd.Pos, nd.Pos.Add(geo.XY{X: 249.99, Y: 0.01}))
		}
		far := net.BBox().Pad(5000)
		queries = append(queries, geo.XY{X: far.MinX, Y: far.MinY}, geo.XY{X: far.MaxX, Y: far.MaxY})
		hits := 0
		for _, q := range queries {
			radii := []float64{0, 40, 249.99, 250, 250.01, 499.99, 500, 500.01, 800, 3000}
			if _, d, ok := idx.refNearestLight(q, 1e4); ok {
				radii = append(radii, d, math.Nextafter(d, 0))
			}
			for _, maxDist := range radii {
				wantN, wantD, wantOK := idx.refNearestLight(q, maxDist)
				n, d, ok := idx.nearestLight(q, maxDist)
				if n != wantN || math.Float64bits(d) != math.Float64bits(wantD) || ok != wantOK {
					t.Fatalf("%s, q %v, maxDist %v: (%v, %v, %v), reference (%v, %v, %v)", name, q, maxDist, n, d, ok, wantN, wantD, wantOK)
				}
				if ok {
					hits++
				}
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no query found a light", name)
		}
	}
}
