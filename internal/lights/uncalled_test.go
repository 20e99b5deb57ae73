package lights

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// ChangeTimes returns the red→green and green→red change instants of the
// cycle containing time t. Within a cycle, red runs [cycleStart,
// cycleStart+Red) and green runs [cycleStart+Red, cycleStart+Cycle).
func (s Schedule) ChangeTimes(t float64) (redToGreen, greenToRed float64) {
	cycleStart := t - s.PhaseAt(t)
	return cycleStart + s.Red, cycleStart + s.Cycle
}
