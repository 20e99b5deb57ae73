// Package lights models traffic-light scheduling exactly as Section III of
// the paper describes it: a light cycles through a red phase followed by a
// green phase (yellow is folded into red per the paper's convention), with
// three controller categories — static, pre-programmed dynamic (plans keyed
// by time of day), and manual (treated as dynamic when not overridden).
//
// Each signalised intersection carries one light per approach direction.
// All approaches of an intersection share the same cycle length (the
// observation the paper's intersection-based enhancement relies on), but
// the red/green split differs per approach and perpendicular approaches are
// anti-phased: when north-south is green, east-west is red.
package lights

import (
	"fmt"
	"math"
	"sort"

	"taxilight/internal/dsp"
)

// State is the colour shown to an approach at an instant.
type State int

const (
	// Red covers the paper's red+yellow interval.
	Red State = iota
	// Green is the go interval.
	Green
)

// String implements fmt.Stringer.
func (s State) String() string {
	if s == Green {
		return "green"
	}
	return "red"
}

// Schedule is one fixed scheduling policy for a single approach: a cycle of
// Cycle seconds starting (red phase first) at phase offset Offset seconds
// past the epoch. Red + Green always equals Cycle.
type Schedule struct {
	Cycle  float64 // full cycle length in seconds
	Red    float64 // red duration in seconds (includes yellow)
	Offset float64 // epoch-time second at which some cycle's red phase begins
}

// Green returns the green duration.
func (s Schedule) Green() float64 { return s.Cycle - s.Red }

// Validate reports whether the schedule is physically meaningful.
func (s Schedule) Validate() error {
	if s.Cycle <= 0 {
		return fmt.Errorf("lights: non-positive cycle %v", s.Cycle)
	}
	if s.Red <= 0 || s.Red >= s.Cycle {
		return fmt.Errorf("lights: red %v outside (0, cycle=%v)", s.Red, s.Cycle)
	}
	return nil
}

// PhaseAt returns the position within the cycle, in [0, Cycle), at time t
// (seconds since epoch). Phase 0 is the start of red.
func (s Schedule) PhaseAt(t float64) float64 {
	p := dsp.Mod(t-s.Offset, s.Cycle)
	if p < 0 {
		p += s.Cycle
	}
	return p
}

// StateAt returns the colour shown at time t.
func (s Schedule) StateAt(t float64) State {
	if s.PhaseAt(t) < s.Red {
		return Red
	}
	return Green
}

// NextGreen returns the earliest time >= t at which the light is green.
// If the light is already green at t, t itself is returned.
func (s Schedule) NextGreen(t float64) float64 {
	p := s.PhaseAt(t)
	if p >= s.Red {
		return t
	}
	return t + (s.Red - p)
}

// WaitAt returns how long a vehicle arriving at time t waits before green.
func (s Schedule) WaitAt(t float64) float64 { return s.NextGreen(t) - t }

// ChangeTimes returns the red→green and green→red change instants of the
// cycle containing time t. Within a cycle, red runs [cycleStart,
// cycleStart+Red) and green runs [cycleStart+Red, cycleStart+Cycle).
func (s Schedule) ChangeTimes(t float64) (redToGreen, greenToRed float64) {
	cycleStart := t - s.PhaseAt(t)
	return cycleStart + s.Red, cycleStart + s.Cycle
}

// Opposed returns the schedule of the perpendicular approach sharing this
// intersection: same cycle, anti-phased, with the complementary split (its
// red equals this approach's green).
func (s Schedule) Opposed() Schedule {
	return Schedule{
		Cycle:  s.Cycle,
		Red:    s.Green(),
		Offset: s.Offset + s.Red, // its red begins when our green begins
	}
}

// Controller yields the active Schedule for an approach at any instant.
// Implementations cover the paper's three light categories.
type Controller interface {
	// ScheduleAt returns the scheduling policy in force at time t.
	ScheduleAt(t float64) Schedule
	// Changes returns all policy-change instants within [t0, t1), the
	// ground truth against which scheduling-change identification is
	// scored. A static controller returns nil.
	Changes(t0, t1 float64) []float64
}

// Static is a Controller with a single never-changing schedule (the
// majority category per the Shenzhen traffic police interview).
type Static struct {
	S Schedule
}

// ScheduleAt implements Controller.
func (c Static) ScheduleAt(float64) Schedule { return c.S }

// Changes implements Controller; a static light never changes policy.
func (c Static) Changes(float64, float64) []float64 { return nil }

// PlanEntry is one row of a pre-programmed plan table: starting at
// DaySecond (seconds past local midnight), the given schedule applies.
type PlanEntry struct {
	DaySecond float64
	S         Schedule
}

// Dynamic is a pre-programmed dynamic Controller: a daily plan table, e.g.
// off-peak and peak schedules, repeating every day. Entries must be sorted
// by DaySecond and cover distinct switch points; the entry with the largest
// DaySecond <= now wins, wrapping to the last entry before the first switch
// of the day.
type Dynamic struct {
	Plan []PlanEntry
}

const daySeconds = 24 * 3600

// NewDynamic validates and returns a Dynamic controller. At least one plan
// entry is required and entries must be strictly increasing within a day.
func NewDynamic(plan []PlanEntry) (*Dynamic, error) {
	if len(plan) == 0 {
		return nil, fmt.Errorf("lights: empty plan")
	}
	for i, e := range plan {
		if e.DaySecond < 0 || e.DaySecond >= daySeconds {
			return nil, fmt.Errorf("lights: plan entry %d at %v outside [0, 86400)", i, e.DaySecond)
		}
		if i > 0 && plan[i].DaySecond <= plan[i-1].DaySecond {
			return nil, fmt.Errorf("lights: plan entries not strictly increasing at %d", i)
		}
		if err := e.S.Validate(); err != nil {
			return nil, fmt.Errorf("lights: plan entry %d: %w", i, err)
		}
	}
	return &Dynamic{Plan: append([]PlanEntry(nil), plan...)}, nil
}

// ScheduleAt implements Controller.
func (c *Dynamic) ScheduleAt(t float64) Schedule {
	ds := dsp.Mod(t, daySeconds)
	if ds < 0 {
		ds += daySeconds
	}
	i := sort.Search(len(c.Plan), func(i int) bool { return c.Plan[i].DaySecond > ds })
	if i == 0 {
		// Before the first switch of the day: previous day's last plan.
		return c.Plan[len(c.Plan)-1].S
	}
	return c.Plan[i-1].S
}

// Changes implements Controller, listing every plan switch in [t0, t1).
// A switch is only reported when the schedule actually differs across it.
func (c *Dynamic) Changes(t0, t1 float64) []float64 {
	if t1 <= t0 || len(c.Plan) < 2 {
		return nil
	}
	var out []float64
	day0 := math.Floor(t0 / daySeconds)
	for day := day0; ; day++ {
		base := day * daySeconds
		if base >= t1 {
			break
		}
		for i, e := range c.Plan {
			at := base + e.DaySecond
			if at < t0 || at >= t1 {
				continue
			}
			prev := c.Plan[(i+len(c.Plan)-1)%len(c.Plan)].S
			if prev != e.S {
				out = append(out, at)
			}
		}
	}
	return out
}

// Approach identifies one signal head at an intersection by the compass
// orientation of the road it controls.
type Approach int

const (
	// NorthSouth controls traffic travelling along the N-S road.
	NorthSouth Approach = iota
	// EastWest controls traffic travelling along the E-W road.
	EastWest
)

// String implements fmt.Stringer.
func (a Approach) String() string {
	if a == EastWest {
		return "EW"
	}
	return "NS"
}

// Intersection couples the two perpendicular approaches of a signalised
// crossroad under one Controller: the controller's schedule applies to the
// NorthSouth approach and the EastWest approach runs the Opposed schedule,
// guaranteeing the shared-cycle-length property.
type Intersection struct {
	ID   int
	Ctrl Controller
}

// ScheduleFor returns the schedule in force at time t for an approach.
func (x *Intersection) ScheduleFor(a Approach, t float64) Schedule {
	s := x.Ctrl.ScheduleAt(t)
	if a == EastWest {
		return s.Opposed()
	}
	return s
}

// StateFor returns the light colour for an approach at time t.
func (x *Intersection) StateFor(a Approach, t float64) State {
	return x.ScheduleFor(a, t).StateAt(t)
}
