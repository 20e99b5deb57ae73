package geo

import (
	"math"
)

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// Valid reports whether p is a physically meaningful WGS-84 coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// Bearing returns the initial great-circle bearing from a to b in degrees
// clockwise from true north, in [0, 360).
func Bearing(a, b Point) float64 {
	lat1, lat2 := Radians(a.Lat), Radians(b.Lat)
	dLon := Radians(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brg := Degrees(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Offset returns the point reached by moving dist metres from p on the
// given bearing (degrees clockwise from north). It uses the local-tangent
// approximation, which is exact enough for the network scales used here.
func Offset(p Point, bearingDeg, dist float64) Point {
	b := Radians(bearingDeg)
	dNorth := dist * math.Cos(b)
	dEast := dist * math.Sin(b)
	dLat := Degrees(dNorth / EarthRadiusMeters)
	dLon := Degrees(dEast / (EarthRadiusMeters * math.Cos(Radians(p.Lat))))
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}
