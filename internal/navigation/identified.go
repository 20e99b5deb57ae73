package navigation

import (
	"fmt"

	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

// ScheduleSource supplies the light schedules a planner believes in —
// ground truth for upper-bound studies, or pipeline-identified schedules
// for the end-to-end application. ok is false when the source has no
// schedule for the approach (the planner then assumes no wait, as a
// navigator without information must).
type ScheduleSource interface {
	ScheduleFor(node roadnet.NodeID, approach lights.Approach, t float64) (lights.Schedule, bool)
}

// TruthSource reads the network's own light controllers.
type TruthSource struct {
	Net *roadnet.Network
}

// ScheduleFor implements ScheduleSource.
func (s TruthSource) ScheduleFor(node roadnet.NodeID, approach lights.Approach, t float64) (lights.Schedule, bool) {
	nd := s.Net.Node(node)
	if nd.Light == nil {
		return lights.Schedule{}, false
	}
	return nd.Light.ScheduleFor(approach, t), true
}

// MapSource serves schedules from an explicit per-approach map, e.g. the
// identification pipeline's output.
type MapSource map[roadnet.NodeID]map[lights.Approach]lights.Schedule

// ScheduleFor implements ScheduleSource.
func (m MapSource) ScheduleFor(node roadnet.NodeID, approach lights.Approach, _ float64) (lights.Schedule, bool) {
	byApp, ok := m[node]
	if !ok {
		return lights.Schedule{}, false
	}
	s, ok := byApp[approach]
	return s, ok
}

// Set records a schedule, allocating the inner map as needed.
func (m MapSource) Set(node roadnet.NodeID, approach lights.Approach, s lights.Schedule) {
	byApp := m[node]
	if byApp == nil {
		byApp = map[lights.Approach]lights.Schedule{}
		m[node] = byApp
	}
	byApp[approach] = s
}

// BelievedPlanner is a time-dependent earliest-arrival planner whose
// light knowledge comes from an arbitrary ScheduleSource instead of
// ground truth. With Source = TruthSource it equals LightAwarePlanner;
// with pipeline-identified schedules it measures the *end-to-end* value
// of the identification system: plans are made with believed schedules,
// but trips are evaluated against the real lights.
type BelievedPlanner struct {
	Net    *roadnet.Network
	Source ScheduleSource
}

// Plan implements Planner.
func (p *BelievedPlanner) Plan(src, dst roadnet.NodeID, depart float64) (roadnet.Route, error) {
	if p.Source == nil {
		return roadnet.Route{}, fmt.Errorf("navigation: nil schedule source")
	}
	route, _, err := p.Net.EarliestArrival(src, dst, depart, func(seg *roadnet.Segment, t float64) float64 {
		t += seg.TravelTime()
		if seg.To == dst {
			return t // no wait at the destination: the trip ends
		}
		if sched, ok := p.Source.ScheduleFor(seg.To, seg.Approach(), t); ok {
			t += sched.WaitAt(t)
		}
		return t
	}, nil)
	return route, err
}
