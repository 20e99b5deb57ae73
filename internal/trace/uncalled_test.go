package trace

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// SpeedMS returns the reported speed in metres per second.
func (r Record) SpeedMS() float64 { return r.SpeedKMH / 3.6 }
