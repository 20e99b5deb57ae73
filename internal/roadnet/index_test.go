package roadnet

import (
	"math"
	"math/rand"
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

// TestSnapMatchesReference holds snap to the query it replaced: the same
// segment out of every tie, the same distance to the bit, the same
// misses — with the filter whole in front of the geometry, and with its
// geometric half moved behind the one closest point snap computes.
func TestSnapMatchesReference(t *testing.T) {
	arterial := DefaultGridConfig()
	arterial.Rows, arterial.Cols, arterial.Spacing = 3, 3, 6000
	skewed := DefaultGridConfig()
	skewed.Spacing, skewed.PosJitter, skewed.RotationDeg = 600, 120, 31
	nets := map[string]*Network{
		"grid":     mustGrid(t, DefaultGridConfig()),
		"arterial": mustGrid(t, arterial),
		"skewed":   mustGrid(t, skewed),
		"tangle":   tangleNet(t, 5),
	}
	points := 600
	if testing.Short() {
		points = 150
	}
	for name, net := range nets {
		idx := net.index
		rng := rand.New(rand.NewSource(17))
		bb := net.BBox().Pad(900) // some queries fall off the index's own padded box
		for i := 0; i < points; i++ {
			q := geo.XY{X: bb.MinX + rng.Float64()*bb.Width(), Y: bb.MinY + rng.Float64()*bb.Height()}
			if i%2 == 0 { // where taxis are: GPS noise around a point of a road
				s := net.segments[rng.Intn(len(net.segments))]
				q = s.PointAt(rng.Float64()).Add(geo.XY{X: rng.NormFloat64() * 40, Y: rng.NormFloat64() * 40})
			}
			heading := rng.Float64() * 360
			lightDist := []float64{150, 450, 5000}[i%3]
			signalised := func(s *Segment) bool { return net.Node(s.To).Signalised() }
			headed := func(s *Segment) bool { return geo.HeadingDiff(s.heading, heading) <= 30 }
			nearLight := func(s *Segment, frac float64) bool { return (1-frac)*s.length <= lightDist }
			for _, maxDist := range []float64{40, 120, 250, 251, 500, 800} {
				for fi, f := range []struct {
					cheap func(*Segment) bool
					near  func(*Segment, float64) bool
				}{
					{nil, nil},
					{headed, nil},
					{signalised, nearLight},
					{func(s *Segment) bool { return signalised(s) && headed(s) }, nearLight},
				} {
					whole := func(s *Segment) bool {
						if f.cheap != nil && !f.cheap(s) {
							return false
						}
						if f.near == nil {
							return true
						}
						_, frac := s.geom.ClosestPoint(q)
						return f.near(s, frac)
					}
					wantSeg, wantD, wantOK := idx.refNearestSegment(q, maxDist, whole)
					for how, got := range map[string]func() (Snap, bool){
						"filter in front": func() (Snap, bool) { return idx.snap(q, maxDist, whole, nil) },
						"filter split":    func() (Snap, bool) { return idx.snap(q, maxDist, f.cheap, f.near) },
					} {
						sn, ok := got()
						if ok != wantOK || sn.Seg != wantSeg || math.Float64bits(sn.Dist) != math.Float64bits(wantD) {
							t.Fatalf("%s, q %v, maxDist %v, filter %d, %s: snap (%v, %v, %v), reference (%v, %v, %v)",
								name, q, maxDist, fi, how, sn.Seg, sn.Dist, ok, wantSeg, wantD, wantOK)
						}
						if !ok {
							if sn != (Snap{}) {
								t.Fatalf("%s: a miss returned %+v", name, sn)
							}
							continue
						}
						if pos, frac := sn.Seg.geom.ClosestPoint(q); pos != sn.Pos || frac != sn.Frac {
							t.Fatalf("%s, q %v: snap says (%v, %v), the segment's closest point is (%v, %v)", name, q, sn.Pos, sn.Frac, pos, frac)
						}
					}
				}
			}
		}
	}
}
