package geo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

const shenzhenLat, shenzhenLon = 22.54, 114.06

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineKnownDistance(t *testing.T) {
	// ShenNan/WenJin to FuHua/FuTian (Table II IDs 1 and 2): about 5.5 km.
	a := Point{Lat: 22.547, Lon: 114.125}
	b := Point{Lat: 22.538, Lon: 114.072}
	d := Haversine(a, b)
	if d < 5000 || d > 6000 {
		t.Fatalf("Haversine = %.0f m, want ~5.5 km", d)
	}
}

func TestHaversineZero(t *testing.T) {
	p := Point{Lat: shenzhenLat, Lon: shenzhenLon}
	if d := Haversine(p, p); d != 0 {
		t.Fatalf("Haversine(p,p) = %v, want 0", d)
	}
}

func TestDistanceMatchesHaversineShortBaselines(t *testing.T) {
	base := Point{Lat: shenzhenLat, Lon: shenzhenLon}
	for _, off := range []struct{ dlat, dlon float64 }{
		{0.001, 0}, {0, 0.001}, {0.002, 0.003}, {-0.004, 0.001}, {0.01, -0.01},
	} {
		q := Point{Lat: base.Lat + off.dlat, Lon: base.Lon + off.dlon}
		h := Haversine(base, q)
		e := Distance(base, q)
		if !almostEqual(h, e, h*0.001+0.01) {
			t.Errorf("offset %+v: haversine %.3f vs equirect %.3f", off, h, e)
		}
	}
}

func TestHeadingDiff(t *testing.T) {
	cases := []struct{ h1, h2, want float64 }{
		{0, 0, 0},
		{0, 90, 90},
		{350, 10, 20},
		{10, 350, 20},
		{0, 180, 180},
		{90, 270, 180},
		{45, 405, 0},
	}
	for _, c := range cases {
		if got := HeadingDiff(c.h1, c.h2); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("HeadingDiff(%v, %v) = %v, want %v", c.h1, c.h2, got, c.want)
		}
	}
}

func TestHeadingDiffProperties(t *testing.T) {
	f := func(h1, h2 float64) bool {
		h1 = math.Mod(math.Abs(h1), 360)
		h2 = math.Mod(math.Abs(h2), 360)
		d := HeadingDiff(h1, h2)
		// Symmetric, bounded, zero on identity.
		return d >= 0 && d <= 180 && almostEqual(d, HeadingDiff(h2, h1), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(Point{Lat: shenzhenLat, Lon: shenzhenLon})
	pts := []Point{
		{22.547, 114.125},
		{22.538, 114.072},
		{22.564, 114.094},
		{22.537, 114.056},
	}
	for _, p := range pts {
		q := pr.Inverse(pr.Forward(p))
		if !almostEqual(q.Lat, p.Lat, 1e-9) || !almostEqual(q.Lon, p.Lon, 1e-9) {
			t.Errorf("round trip %v -> %v", p, q)
		}
	}
}

func TestProjectionPreservesDistance(t *testing.T) {
	pr := NewProjection(Point{Lat: shenzhenLat, Lon: shenzhenLon})
	a := Point{22.547, 114.125}
	b := Point{22.548, 114.129}
	planar := pr.Forward(a).Sub(pr.Forward(b)).Norm()
	sphere := Haversine(a, b)
	if !almostEqual(planar, sphere, sphere*0.002) {
		t.Errorf("planar %.2f vs sphere %.2f", planar, sphere)
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{A: XY{0, 0}, B: XY{10, 0}}
	cases := []struct {
		q     XY
		wantP XY
		wantT float64
	}{
		{XY{5, 3}, XY{5, 0}, 0.5},
		{XY{-4, 2}, XY{0, 0}, 0},   // clamped to A
		{XY{15, -2}, XY{10, 0}, 1}, // clamped to B
		{XY{0, 0}, XY{0, 0}, 0},
	}
	for _, c := range cases {
		p, tt := s.ClosestPoint(c.q)
		if !almostEqual(p.X, c.wantP.X, 1e-9) || !almostEqual(p.Y, c.wantP.Y, 1e-9) || !almostEqual(tt, c.wantT, 1e-9) {
			t.Errorf("ClosestPoint(%v) = %v, %v; want %v, %v", c.q, p, tt, c.wantP, c.wantT)
		}
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Segment{A: XY{3, 4}, B: XY{3, 4}}
	p, tt := s.ClosestPoint(XY{0, 0})
	if p != s.A || tt != 0 {
		t.Fatalf("degenerate segment: got %v, %v", p, tt)
	}
	if d := s.DistanceTo(XY{0, 0}); !almostEqual(d, 5, 1e-9) {
		t.Fatalf("DistanceTo = %v, want 5", d)
	}
}

func TestSegmentHeading(t *testing.T) {
	cases := []struct {
		s    Segment
		want float64
	}{
		{Segment{XY{0, 0}, XY{0, 10}}, 0},  // north
		{Segment{XY{0, 0}, XY{10, 0}}, 90}, // east
		{Segment{XY{0, 0}, XY{0, -10}}, 180},
		{Segment{XY{0, 0}, XY{-10, 0}}, 270},
	}
	for _, c := range cases {
		if got := c.s.HeadingDeg(); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("HeadingDeg(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestSegmentDistanceProperty(t *testing.T) {
	f := func(ax, ay, bx, by, qx, qy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 1e4) }
		s := Segment{A: XY{clamp(ax), clamp(ay)}, B: XY{clamp(bx), clamp(by)}}
		q := XY{clamp(qx), clamp(qy)}
		d := s.DistanceTo(q)
		// Distance to segment never exceeds distance to either endpoint.
		da := q.Sub(s.A).Norm()
		db := q.Sub(s.B).Norm()
		return d <= da+1e-9 && d <= db+1e-9 && d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox(XY{1, 2}, XY{-3, 5}, XY{4, -1})
	if b.MinX != -3 || b.MaxX != 4 || b.MinY != -1 || b.MaxY != 5 {
		t.Fatalf("unexpected box %+v", b)
	}
	if !b.Contains(XY{0, 0}) || b.Contains(XY{10, 0}) {
		t.Fatal("Contains wrong")
	}
	p := b.Pad(2)
	if p.MinX != -5 || p.MaxY != 7 {
		t.Fatalf("Pad wrong: %+v", p)
	}
	if b.Width() != 7 || b.Height() != 6 {
		t.Fatalf("Width/Height wrong: %v %v", b.Width(), b.Height())
	}
}

func TestNewBBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBBox()
}

func TestPointIsZero(t *testing.T) {
	if !(Point{}).IsZero() || (Point{1, 1}).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func BenchmarkHaversine(b *testing.B) {
	p := Point{22.547, 114.125}
	q := Point{22.538, 114.072}
	for i := 0; i < b.N; i++ {
		_ = Haversine(p, q)
	}
}

func BenchmarkDistanceEquirect(b *testing.B) {
	p := Point{22.547, 114.125}
	q := Point{22.538, 114.072}
	for i := 0; i < b.N; i++ {
		_ = Distance(p, q)
	}
}

func ExampleHaversine() {
	shenNanWenJin := Point{Lat: 22.547, Lon: 114.125}
	fuHuaFuTian := Point{Lat: 22.538, Lon: 114.072}
	fmt.Printf("%.1f km\n", Haversine(shenNanWenJin, fuHuaFuTian)/1000)
	// Output:
	// 5.5 km
}

func ExampleProjection() {
	pr := NewProjection(Point{Lat: 22.543, Lon: 114.06})
	xy := pr.Forward(Point{Lat: 22.553, Lon: 114.06})
	fmt.Printf("1 km north => (%.0f, %.0f) m\n", xy.X, xy.Y)
	// Output:
	// 1 km north => (0, 1112) m
}
