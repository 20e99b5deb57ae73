package geo

import "math"

// Haversine returns the great-circle distance between a and b in metres,
// the oracle the tests hold Distance and Projection to.
func Haversine(a, b Point) float64 {
	lat1, lat2 := Radians(a.Lat), Radians(b.Lat)
	dLat := lat2 - lat1
	dLon := Radians(b.Lon - a.Lon)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}
