package core

import (
	"fmt"
	"math"
	"slices"

	"taxilight/internal/dsp"
)

// CyclePoint is one timestamped cycle-length estimate in the continuous
// monitoring series (Fig. 12: one estimate every 5 minutes).
type CyclePoint struct {
	T     float64 `json:"t_s"`     // estimate time, seconds
	Cycle float64 `json:"cycle_s"` // estimated cycle length, seconds
}

// SchedulingChange is one detected scheduling-policy switch.
type SchedulingChange struct {
	// T is the detected change time (the first estimate on the new
	// plateau), seconds.
	T float64
	// From and To are the plateau cycle lengths before and after.
	From, To float64
}

// The scheduling-change detector's tuning. It absorbs isolated estimation
// outliers while confirming genuine plan switches within three estimates
// (15 minutes at the paper's 5-minute cadence).
const (
	// monitorTolerance is the largest cycle-length deviation (seconds)
	// still considered the same scheduling policy.
	monitorTolerance = 8.0
	// monitorConfirm is how many consecutive deviating estimates declare
	// a scheduling change; isolated DFT outliers (the ~7 % gross errors
	// of Fig. 14) never persist, so they are absorbed.
	monitorConfirm = 3
)

// Monitor detects scheduling changes, sustained plateau shifts in a
// chronological cycle-length series: feed one estimate at a time (the
// pipeline produces one per light every 5 minutes) and collect confirmed
// changes as they happen. The series is prefiltered by a running median
// of three, then a change is declared when monitorConfirm consecutive
// estimates all deviate from the current plateau by more than
// monitorTolerance while agreeing with each other within it. A zero
// Monitor is ready to use.
//
// It returns exactly what one scan over the whole series would (the tests'
// DetectSchedulingChanges) while keeping no series. A filtered value is
// final once the point after it completes its median window, and so is
// the scan's state after it; that state and the last two points are all a
// Monitor keeps. Each Feed consumes the point before it for good and
// replays the newest, whose median the next point may still move, on a
// copy of the scan.
type Monitor struct {
	state MonitorState
}

// MonitorState is everything a Monitor keeps, and all a restarted one
// needs to carry on exactly: a fixed-size value that no number of Feeds
// makes grow. The zero state is an empty monitor.
type MonitorState struct {
	// Held is how many points have been fed, up to two; Last holds them,
	// the newest in Last[1].
	Held int
	Last [2]CyclePoint
	// Plateau is the scan's plateau, set once Held is 2. Run holds the
	// RunLen filtered values of the open run of estimates that deviate
	// from it while agreeing with the run's first, at time RunT; a run of
	// monitorConfirm values is confirmed, and emptied.
	Plateau float64
	Run     [monitorConfirm - 1]float64
	RunLen  int
	RunT    float64
	// Pending: a change confirmed on the newest point's truncated median
	// was announced, and the scan has confirmed no change for good since.
	// If the next point moves that median the announcement vanishes, but
	// it stays counted: the next change the scan confirms is not announced
	// again, as when every Feed ran the batch scan over the whole series.
	Pending bool
}

// step consumes the filtered estimate v at time t, one iteration of the
// whole-series scan, and reports the change it confirms.
func (s *MonitorState) step(t, v float64) (SchedulingChange, bool) {
	if math.Abs(v-s.Plateau) <= monitorTolerance {
		s.clearRun()
		return SchedulingChange{}, false
	}
	if s.RunLen > 0 && math.Abs(v-s.Run[0]) > monitorTolerance {
		s.clearRun() // a different deviation: the run restarts here
	}
	if s.RunLen == 0 {
		s.RunT = t
	}
	if s.RunLen < len(s.Run) {
		s.Run[s.RunLen] = v
		s.RunLen++
		return SchedulingChange{}, false
	}
	var run [monitorConfirm]float64 // the run is complete; its median is the new plateau
	run[copy(run[:], s.Run[:])] = v
	c := SchedulingChange{T: s.RunT, From: s.Plateau, To: median(run[:]...)}
	s.Plateau = c.To
	s.clearRun()
	return c, true
}

func (s *MonitorState) clearRun() { s.Run, s.RunLen, s.RunT = [monitorConfirm - 1]float64{}, 0, 0 }

// Feed appends one estimate and returns any newly confirmed scheduling
// changes. It panics on an estimate older than the last one: feeding
// out-of-order points is a caller bug, surfaced loudly rather than by
// silently dropping data.
func (m *Monitor) Feed(p CyclePoint) []SchedulingChange {
	s := &m.state
	if s.Held > 0 && p.T < s.Last[1].T {
		panic(fmt.Errorf("core: estimate at %v older than the last, at %v", p.T, s.Last[1].T))
	}
	var fresh []SchedulingChange
	switch s.Held { // p completes the median window of the point before it
	case 1: // the first filtered value, a window of two, is the plateau
		s.Plateau = median(s.Last[1].Cycle, p.Cycle)
	case 2:
		if c, ok := s.step(s.Last[1].T, median(s.Last[0].Cycle, s.Last[1].Cycle, p.Cycle)); ok {
			if !s.Pending {
				fresh = append(fresh, c)
			}
			s.Pending = false
		}
	}
	s.Last[0], s.Last[1], s.Held = s.Last[1], p, min(s.Held+1, 2)
	if s.Held < 2 {
		return fresh // a lone point only starts the plateau
	}
	prov := *s // p's own window is the last two points until the next one
	if c, ok := prov.step(p.T, median(s.Last[0].Cycle, p.Cycle)); ok && !s.Pending {
		fresh = append(fresh, c)
		s.Pending = true
	}
	return fresh
}

// median sorts v and returns its median; of two values, the larger, as
// the scan's window of two at either end of the series takes it.
func median(v ...float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}

// State returns the monitor's state, for RestoreMonitor after a restart.
func (m *Monitor) State() MonitorState { return m.state }

// RestoreMonitor returns a monitor that carries on exactly as the one
// whose State st is: on every later Feed it reports what that one would
// have, so a restart neither re-announces a confirmed plan switch nor
// loses one in progress. It refuses a state no monitor could have: a
// value that is not finite, a run of monitorConfirm values or more, a run
// before a plateau, or points and a run out of time order.
func RestoreMonitor(st MonitorState) (*Monitor, error) {
	for _, v := range append([]float64{st.Last[0].T, st.Last[0].Cycle, st.Last[1].T, st.Last[1].Cycle, st.Plateau, st.RunT}, st.Run[:]...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: restore monitor: a value of %v", v)
		}
	}
	switch {
	case st.Held < 0 || st.Held > 2 || st.RunLen < 0 || st.RunLen >= monitorConfirm || st.RunLen > 0 && st.Held < 2:
		return nil, fmt.Errorf("core: restore monitor: %d points held and a run of %d", st.Held, st.RunLen)
	case st.Held == 2 && st.Last[0].T > st.Last[1].T || st.RunLen > 0 && st.RunT > st.Last[0].T:
		return nil, fmt.Errorf("core: restore monitor: a run from %v and points %+v out of time order", st.RunT, st.Last)
	}
	return &Monitor{state: st}, nil
}

// SlidingCycleSeries estimates the cycle length on a trailing window that
// advances in fixed steps across [t0, t1] — the exact series Fig. 12
// plots and Monitor consumes. Windows whose estimation fails (e.g. too
// few samples at night) are skipped. The result is chronological.
func SlidingCycleSeries(samples []dsp.Sample, t0, t1, window, step float64, cfg CycleConfig) ([]CyclePoint, error) {
	if window <= 0 || step <= 0 || t1 < t0+window {
		return nil, fmt.Errorf("core: bad sliding spec [%v, %v] window %v step %v", t0, t1, window, step)
	}
	var out []CyclePoint
	for at := t0 + window; at <= t1; at += step {
		est, err := IdentifyCycle(samples, at-window, at, cfg)
		if err != nil {
			continue
		}
		out = append(out, CyclePoint{T: at, Cycle: est})
	}
	return out, nil
}
