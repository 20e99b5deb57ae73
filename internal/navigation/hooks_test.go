package navigation

import "taxilight/internal/roadnet"

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// RouteDistance returns the driven distance of a route in metres.
func RouteDistance(net *roadnet.Network, route roadnet.Route) float64 {
	d := 0.0
	for _, sid := range route.Segments {
		d += net.Segment(sid).Length()
	}
	return d
}
