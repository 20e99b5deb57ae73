package navigation

import "taxilight/internal/roadnet"

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// ExpectedWait returns the mean red-light delay of a random (uniform
// phase) arrival at a schedule: an arrival hits red with probability
// red/cycle and then waits red/2 on average, so E[wait] = red²/(2·cycle).
// This is the quantity velocity-planning work (e.g. Mahler & Vahidi, ref
// [4] of the paper) optimises when only the timing statistics — not the
// live phase — are known.
func ExpectedWait(cycle, red float64) float64 {
	if cycle <= 0 || red <= 0 {
		return 0
	}
	if red > cycle {
		red = cycle
	}
	return red * red / (2 * cycle)
}

// ProbabilisticPlanner routes using only each light's cycle length and
// red duration, not its phase: every signalised intersection costs its
// expected wait. It sits between ShortestTimePlanner (no light
// knowledge) and LightAwarePlanner (full real-time schedule knowledge),
// and quantifies how much of Fig. 16's saving specifically needs the
// *signal change times* the paper identifies — static timing statistics
// alone cannot dodge individual reds.
type ProbabilisticPlanner struct {
	Net *roadnet.Network
	// Schedules optionally overrides the timing statistics per light
	// node (e.g. with pipeline-identified values); nil reads the ground
	// truth controllers.
	Schedules map[roadnet.NodeID]CycleRed
}

// CycleRed is the phase-free timing statistic of one approach.
type CycleRed struct {
	Cycle, Red float64
}

// Plan implements Planner.
func (p *ProbabilisticPlanner) Plan(src, dst roadnet.NodeID, _ float64) (roadnet.Route, error) {
	return p.Net.ShortestPath(src, dst, func(s *roadnet.Segment) float64 {
		cost := s.TravelTime()
		if s.To == dst {
			return cost // no wait suffered at the destination
		}
		node := p.Net.Node(s.To)
		if node.Light == nil {
			return cost
		}
		if p.Schedules != nil {
			if cr, ok := p.Schedules[s.To]; ok {
				return cost + ExpectedWait(cr.Cycle, cr.Red)
			}
			return cost
		}
		sched := node.Light.ScheduleFor(s.Approach(), 0)
		return cost + ExpectedWait(sched.Cycle, sched.Red)
	})
}
