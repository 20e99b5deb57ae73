// Package geo provides the geodesy primitives used throughout taxilight:
// WGS-84 points, fast equirectangular distances, a local east-north (ENU)
// projection, and planar point/segment math.
//
// Shenzhen spans roughly 113.75E–114.65E, 22.45N–22.85N; distances between
// consecutive taxi updates are a few hundred metres at most, so the fast
// equirectangular approximation is accurate to well under a metre at that
// scale. The tests hold it to the great-circle distance.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by all spherical formulas.
const EarthRadiusMeters = 6371008.8

// Point is a WGS-84 coordinate in degrees.
type Point struct {
	Lat float64 // latitude, degrees north
	Lon float64 // longitude, degrees east
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// IsZero reports whether p is the zero value. The zero point (0, 0) lies in
// the Gulf of Guinea and never appears in valid traces, so it doubles as a
// "no fix" sentinel matching GPS condition 0 in the trace format.
func (p Point) IsZero() bool { return p.Lat == 0 && p.Lon == 0 }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Distance returns the equirectangular-approximation distance between a and
// b in metres. For the sub-kilometre baselines that dominate taxi-trace
// processing it agrees with the great-circle distance to < 0.1 %.
func Distance(a, b Point) float64 {
	latMid := Radians((a.Lat + b.Lat) / 2)
	dx := Radians(b.Lon-a.Lon) * math.Cos(latMid)
	dy := Radians(b.Lat - a.Lat)
	return EarthRadiusMeters * math.Hypot(dx, dy)
}

// HeadingDiff returns the absolute angular difference between two headings
// in degrees, folded into [0, 180].
func HeadingDiff(h1, h2 float64) float64 {
	d := math.Mod(math.Abs(h1-h2), 360)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Projection maps WGS-84 points to a local planar east-north frame centred
// at Origin, with X pointing east and Y pointing north, both in metres.
// It is the standard equirectangular (plate carrée) local projection and is
// adequate for a single metropolitan area.
type Projection struct {
	Origin Point
	cosLat float64
}

// NewProjection returns a Projection centred at origin.
func NewProjection(origin Point) *Projection {
	return &Projection{Origin: origin, cosLat: math.Cos(Radians(origin.Lat))}
}

// XY is a planar coordinate in metres in a Projection's frame.
type XY struct {
	X, Y float64
}

// Add returns a + b componentwise.
func (a XY) Add(b XY) XY { return XY{a.X + b.X, a.Y + b.Y} }

// Sub returns a - b componentwise.
func (a XY) Sub(b XY) XY { return XY{a.X - b.X, a.Y - b.Y} }

// Scale returns a scaled by s.
func (a XY) Scale(s float64) XY { return XY{a.X * s, a.Y * s} }

// Dot returns the dot product of a and b.
func (a XY) Dot(b XY) float64 { return a.X*b.X + a.Y*b.Y }

// Norm returns the Euclidean length of a.
func (a XY) Norm() float64 { return math.Hypot(a.X, a.Y) }

// Forward projects a WGS-84 point into the planar frame.
func (pr *Projection) Forward(p Point) XY {
	return XY{
		X: EarthRadiusMeters * Radians(p.Lon-pr.Origin.Lon) * pr.cosLat,
		Y: EarthRadiusMeters * Radians(p.Lat-pr.Origin.Lat),
	}
}

// Inverse maps a planar coordinate back to WGS-84.
func (pr *Projection) Inverse(q XY) Point {
	return Point{
		Lat: pr.Origin.Lat + Degrees(q.Y/EarthRadiusMeters),
		Lon: pr.Origin.Lon + Degrees(q.X/(EarthRadiusMeters*pr.cosLat)),
	}
}

// Segment is a directed planar line segment from A to B.
type Segment struct {
	A, B XY
}

// Length returns the segment length in metres.
func (s Segment) Length() float64 { return s.B.Sub(s.A).Norm() }

// HeadingDeg returns the segment direction in degrees clockwise from north.
func (s Segment) HeadingDeg() float64 {
	d := s.B.Sub(s.A)
	h := Degrees(math.Atan2(d.X, d.Y)) // atan2(east, north): 0 = north, 90 = east
	return math.Mod(h+360, 360)
}

// ClosestPoint returns the point on the segment closest to q and the
// parameter t in [0, 1] such that the point equals A + t*(B-A).
func (s Segment) ClosestPoint(q XY) (XY, float64) {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return s.A, 0
	}
	t := q.Sub(s.A).Dot(d) / len2
	t = math.Max(0, math.Min(1, t))
	return s.A.Add(d.Scale(t)), t
}

// DistanceTo returns the distance in metres from q to the segment.
func (s Segment) DistanceTo(q XY) float64 {
	p, _ := s.ClosestPoint(q)
	return p.Sub(q).Norm()
}

// BBox is an axis-aligned bounding box in the planar frame.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewBBox returns the bounding box of the given points. It panics on an
// empty input because an empty box has no meaningful extent.
func NewBBox(pts ...XY) BBox {
	if len(pts) == 0 {
		panic("geo: NewBBox with no points")
	}
	b := BBox{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the smallest box containing b and p.
func (b BBox) Extend(p XY) BBox {
	return BBox{
		MinX: math.Min(b.MinX, p.X),
		MinY: math.Min(b.MinY, p.Y),
		MaxX: math.Max(b.MaxX, p.X),
		MaxY: math.Max(b.MaxY, p.Y),
	}
}

// Pad returns b expanded by m metres on every side.
func (b BBox) Pad(m float64) BBox {
	return BBox{b.MinX - m, b.MinY - m, b.MaxX + m, b.MaxY + m}
}

// Contains reports whether p lies inside (or on the border of) b.
func (b BBox) Contains(p XY) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Width returns the box width in metres.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the box height in metres.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }
