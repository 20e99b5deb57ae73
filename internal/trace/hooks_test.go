package trace

import "time"

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// Interval returns the fixed reporting interval assigned to taxi id.
func (g *Generator) Interval(id int) float64 { return g.intervals[id] }

// SimSeconds converts a record timestamp back to simulator seconds
// relative to the generator's epoch.
func (g *Generator) SimSeconds(t time.Time) float64 {
	return t.Sub(g.cfg.Epoch).Seconds()
}
