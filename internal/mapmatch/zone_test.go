package mapmatch

import (
	"math"
	"math/rand"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
)

type namedNet struct {
	name string
	net  *roadnet.Network
}

// zoneNets are the shapes the mask is held to the reference on: a uniform
// grid, a rotated and jittered one (no road follows a cell edge), a tangle
// of long diagonals with two-way roads (tails far longer than a cell, in
// every direction), and the perf ledger's two tape shapes.
func zoneNets(t testing.TB) []namedNet {
	t.Helper()
	grid := func(mutate func(*roadnet.GridConfig)) *roadnet.Network {
		cfg := roadnet.DefaultGridConfig()
		mutate(&cfg)
		net, err := roadnet.GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	rng := rand.New(rand.NewSource(5))
	tangle := roadnet.NewNetwork(roadnet.DefaultGridConfig().Origin)
	const nodes = 40
	for i := 0; i < nodes; i++ {
		var light *lights.Intersection
		if i%3 != 0 {
			light = &lights.Intersection{ID: i, Ctrl: lights.Static{S: lights.Schedule{Cycle: 90, Red: 40}}}
		}
		tangle.AddNode(geo.XY{X: rng.Float64() * 5000, Y: rng.Float64() * 5000}, light)
	}
	for i := 0; i < 90; i++ {
		a, b := roadnet.NodeID(rng.Intn(nodes)), roadnet.NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		if _, err := tangle.AddSegment(a, b, "tangle", 13.9); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // the two directions of one road tie exactly in the fallback
			if _, err := tangle.AddSegment(b, a, "tangle", 13.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tangle.Finalize(); err != nil {
		t.Fatal(err)
	}
	return []namedNet{
		{"grid", grid(func(c *roadnet.GridConfig) { c.Rows, c.Cols = 4, 4 })},
		{"skewed", grid(func(c *roadnet.GridConfig) {
			c.Rows, c.Cols, c.Spacing, c.PosJitter, c.RotationDeg = 5, 5, 600, 120, 31
		})},
		{"tangle", tangle},
		{"city", grid(func(c *roadnet.GridConfig) { c.Rows, c.Cols, c.Spacing = 8, 8, 800 })},
		{"arterial", grid(func(c *roadnet.GridConfig) { c.Rows, c.Cols, c.Spacing = 3, 3, 6000 })},
	}
}

// zoneConfigs: the defaults; a light distance longer than most segments
// (the whole segment is tail) and shorter than the arterial's; a match
// distance wider than a mask cell and than the road index's.
var zoneConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"default", nil},
	{"longLightDist", func(c *Config) { c.MaxLightDist = 2500 }},
	{"wideMatchDist", func(c *Config) { c.MaxMatchDist = 300 }},
}

// zonePoints calls visit with query points for m's network: a lattice
// finer than a mask cell and out of step with it, reaching past the
// network box by more than 2·MaxMatchDist; every mask-cell corner and edge
// midpoint with points up to 2 m to either side (both classes thinned to
// one point in eight where no cell around is marked either — the
// arterial's empty middle, where every point says the same); a ring of points a
// centimetre inside and outside MaxMatchDist around both ends of every
// tail, the rim of what can match; and points far off the mask, which clamp
// to its edge cells. stride thins all but the last class.
func zonePoints(m *Matcher, stride int, visit func(geo.XY)) {
	z := &m.zone
	reach := 2*m.cfg.MaxMatchDist + zoneCell
	bb := m.net.BBox().Pad(reach)
	n := 0
	for y := bb.MinY; y <= bb.MaxY; y += 47 {
		for x := bb.MinX; x <= bb.MaxX; x += 53 {
			q := geo.XY{X: x, Y: y}
			if n++; n%stride == 0 && (n%8 == 0 || z.markedAround(q)) {
				visit(q)
			}
		}
	}
	offsets := []float64{-2, -1e-3, 0, 1e-3, 2}
	for j := 0; j <= z.ny; j++ {
		for i := 0; i <= z.nx; i++ {
			corner := geo.XY{X: z.minX + float64(i)*zoneCell, Y: z.minY + float64(j)*zoneCell}
			if n++; n%stride != 0 || (n%8 != 0 && !z.markedAround(corner)) {
				continue
			}
			for _, d := range offsets {
				visit(corner.Add(geo.XY{X: d, Y: d}))
				visit(corner.Add(geo.XY{X: d, Y: -d}))
				visit(corner.Add(geo.XY{X: zoneCell / 2, Y: d}))
				visit(corner.Add(geo.XY{X: d, Y: zoneCell / 2}))
			}
		}
	}
	for _, s := range m.net.Segments() {
		if n++; n%stride != 0 || !m.net.Node(s.To).Signalised() {
			continue
		}
		tail := s.PointAt(max(0, 1-m.cfg.MaxLightDist/s.Length()))
		for deg := 0.0; deg < 360; deg += 22.5 {
			dir := geo.XY{X: math.Cos(geo.Radians(deg)), Y: math.Sin(geo.Radians(deg))}
			for _, r := range []float64{m.cfg.MaxMatchDist - 0.01, m.cfg.MaxMatchDist + 0.01} {
				visit(tail.Add(dir.Scale(r)))
				visit(s.Geom().B.Add(dir.Scale(r)))
			}
		}
	}
	for _, far := range []float64{-4e6, -9e4, 9e4, 4e6} {
		visit(geo.XY{X: far, Y: bb.MinY + bb.Height()/3})
		visit(geo.XY{X: bb.MinX + bb.Width()/3, Y: far})
		visit(geo.XY{X: far, Y: -far})
	}
}

// markedAround reports whether q's cell or one of its neighbours is marked.
func (z *zoneMask) markedAround(q geo.XY) bool {
	for _, dy := range []float64{-zoneCell, 0, zoneCell} {
		for _, dx := range []float64{-zoneCell, 0, zoneCell} {
			if z.canMatch(q.Add(geo.XY{X: dx, Y: dy})) {
				return true
			}
		}
	}
	return false
}

// zoneHeadings are cycled over the points: the compass directions a grid's
// roads run in, the skewed grid's, and some that agree with nothing.
var zoneHeadings = []float64{0, 90, 180, 270, 31, 121, 211, 301, 47, 163, 255, 340}

// TestZoneNeverRejectsAMatch holds MatchWithStats, mask in front, to the
// body without one: every Matched field and every counter equal, for
// moving and stopped (fallback) records alike. The mask may only reject
// earlier what Snap would reject.
func TestZoneNeverRejectsAMatch(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, nn := range zoneNets(t) {
		for _, zc := range zoneConfigs {
			net, name := nn.net, nn.name+"/"+zc.name
			m := matcher(t, net, zc.mutate)
			var got, want MatchStats
			zoneRejected, n := 0, 0
			zonePoints(m, stride, func(q geo.XY) {
				n++
				heading := zoneHeadings[n%len(zoneHeadings)]
				for _, speed := range []float64{40, 0} {
					rec := recordAt(net, q, heading, speed, epoch)
					gm, gok := m.MatchWithStats(rec, &got)
					wm, wok := refMatchWithStats(m, rec, &want)
					if gok != wok || gm != wm {
						t.Fatalf("%s: q %v heading %v speed %v:\nmatch     %+v %v\nreference %+v %v",
							name, q, heading, speed, gm, gok, wm, wok)
					}
				}
				if !m.zone.canMatch(m.net.Projection().Forward(m.net.Projection().Inverse(q))) {
					zoneRejected++
				}
			})
			if got != want {
				t.Fatalf("%s: stats %+v, reference %+v", name, got, want)
			}
			// Every way out is taken: both kinds of match, the mask's
			// rejection, and Snap's behind a marked cell.
			if got.Matched == 0 || got.FallbackMatched == 0 || zoneRejected == 0 || got.RejectedNoSegment <= 2*zoneRejected {
				t.Fatalf("%s: %d points do not reach every outcome: %+v, %d rejected by the mask", name, n, got, zoneRejected)
			}
			t.Logf("%s: %d points, %+v, %d rejected by the mask", name, n, got, zoneRejected)
		}
	}
}

// FuzzZoneNeverRejectsAMatch is the same differential with the record's
// position, heading and speed in the fuzzer's hands, over every network
// and config of the test above (they share one origin, so one coordinate
// pair lands somewhere on each).
func FuzzZoneNeverRejectsAMatch(f *testing.F) {
	var matchers []*Matcher
	for _, nn := range zoneNets(f) {
		for _, zc := range zoneConfigs {
			matchers = append(matchers, matcher(f, nn.net, zc.mutate))
		}
	}
	// Seeds: a thin sample of the test's points on each network, with the
	// out-of-range values Validate turns away beside them.
	for i := 0; i < len(matchers); i += len(zoneConfigs) {
		m, n := matchers[i], 0
		zonePoints(m, 997, func(q geo.XY) {
			n++
			pt := m.net.Projection().Inverse(q)
			f.Add(pt.Lat, pt.Lon, zoneHeadings[n%len(zoneHeadings)], float64(40*(n%2)))
		})
	}
	f.Add(91.0, 114.06, 10.0, 0.0)
	f.Add(22.543, -181.0, 10.0, 0.0)
	f.Add(22.543, 114.06, 360.0, -1.0)
	f.Fuzz(func(t *testing.T, lat, lon, heading, speed float64) {
		rec := trace.Record{
			Plate: "B00001", Lat: lat, Lon: lon, Time: epoch, DeviceID: 1,
			SpeedKMH: speed, Heading: heading, GPSOK: true,
		}
		for _, m := range matchers {
			var got, want MatchStats
			gm, gok := m.MatchWithStats(rec, &got)
			wm, wok := refMatchWithStats(m, rec, &want)
			if gok != wok || gm != wm || got != want {
				t.Fatalf("cfg %+v, %+v:\nmatch     %+v %v %+v\nreference %+v %v %+v", m.cfg, rec, gm, gok, got, wm, wok, want)
			}
		}
	})
}
