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
	T     float64 // estimate time, seconds
	Cycle float64 // estimated cycle length, seconds
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
	// monitorMedianWindow is the size of the running-median prefilter.
	monitorMedianWindow = 3
)

// Monitor detects scheduling changes, sustained plateau shifts in a
// chronological cycle-length series: feed one estimate at a time (the
// pipeline produces one per light every 5 minutes) and collect confirmed
// changes as they happen. The series is median-prefiltered, then a change
// is declared when monitorConfirm consecutive estimates all deviate from
// the current plateau by more than monitorTolerance while agreeing with
// each other within it.
//
// It returns exactly what one scan over the whole series would (the tests'
// DetectSchedulingChanges), without rescanning the series. A filtered
// value is final once its median window is complete — index i of n points,
// i+monitorMedianWindow/2 < n — and the detector's state after the last
// such index never changes again. Only the up to monitorMedianWindow/2
// newest points see a truncated window whose median the next point may
// move, so each Feed advances that state (final) over the indexes that
// just became final and replays the provisional tail on a copy of it.
type Monitor struct {
	series []CyclePoint
	// emitted is the number of changes reported so far. A change confirmed
	// inside the provisional tail can vanish when a later point moves a
	// median; it stays counted, so the next change at that position in the
	// batch result is not reported — as when every Feed ran the batch scan.
	emitted int

	next    int // first index the final state has not consumed
	final   detector
	nFinal  int       // changes confirmed by the final state
	tail    []float64 // provisional copy of final.run, cap monitorConfirm
	medians []float64 // one median window, cap monitorMedianWindow
}

// detector is the plateau scan's state between two estimates.
type detector struct {
	plateau float64
	// run holds the filtered values of the current run of estimates that
	// deviate from the plateau while agreeing with the run's first; runT is
	// the time of that first estimate. The run is confirmed, and emptied,
	// when it reaches monitorConfirm values.
	run  []float64
	runT float64
}

// step consumes the filtered estimate v at time t — one iteration of the
// whole-series scan — and reports the change it confirms.
func (d *detector) step(t, v float64) (SchedulingChange, bool) {
	if math.Abs(v-d.plateau) <= monitorTolerance {
		d.run = d.run[:0]
		return SchedulingChange{}, false
	}
	if len(d.run) > 0 && math.Abs(v-d.run[0]) > monitorTolerance {
		d.run = d.run[:0] // a different deviation: the run restarts here
	}
	if len(d.run) == 0 {
		d.runT = t
	}
	d.run = append(d.run, v)
	if len(d.run) < monitorConfirm {
		return SchedulingChange{}, false
	}
	slices.Sort(d.run) // the run is spent; its median is the new plateau
	c := SchedulingChange{T: d.runT, From: d.plateau, To: d.run[len(d.run)/2]}
	d.plateau = c.To
	d.run = d.run[:0]
	return c, true
}

// NewMonitor returns a streaming scheduling-change monitor.
func NewMonitor() *Monitor {
	m := newMonitor(0)
	return &m
}

// newMonitor is an empty Monitor with room for seriesCap points.
// final.run, tail and medians share one array, each capped.
func newMonitor(seriesCap int) Monitor {
	const c, w = monitorConfirm, monitorMedianWindow
	buf := make([]float64, 2*c+w)
	return Monitor{
		series:  make([]CyclePoint, 0, seriesCap),
		final:   detector{run: buf[:0:c]},
		tail:    buf[c : c : 2*c],
		medians: buf[2*c : 2*c : 2*c+w],
	}
}

// Feed appends one estimate and returns any newly confirmed scheduling
// changes. It panics on an estimate older than the last one: feeding
// out-of-order points is a caller bug, surfaced loudly rather than by
// silently dropping data.
func (m *Monitor) Feed(p CyclePoint) []SchedulingChange {
	if n := len(m.series); n > 0 && p.T < m.series[n-1].T {
		panic(fmt.Errorf("core: series not chronological at %d", n))
	}
	m.series = append(m.series, p)
	fresh, total := m.scan()
	if total <= m.emitted {
		return nil
	}
	m.emitted = total
	return fresh
}

// scan brings the final state up to date with the series and replays the
// provisional tail. total is the number of changes the batch scan of the
// whole series finds; fresh lists those from position m.emitted on.
func (m *Monitor) scan() (fresh []SchedulingChange, total int) {
	consume := func(d *detector, i int) {
		t, v := m.series[i].T, m.filtered(i)
		if i == 0 {
			d.plateau = v
			return
		}
		if c, ok := d.step(t, v); ok {
			if total >= m.emitted {
				fresh = append(fresh, c)
			}
			total++
		}
	}
	total = m.nFinal
	for half := monitorMedianWindow / 2; m.next+half < len(m.series); m.next++ {
		consume(&m.final, m.next)
	}
	m.nFinal = total
	prov := m.final
	prov.run = append(m.tail[:0], m.final.run...)
	for i := m.next; i < len(m.series); i++ {
		consume(&prov, i)
	}
	return fresh, total
}

// filtered is the median of the series' cycles in the window of
// monitorMedianWindow centred on i, shrunk at the series' ends.
func (m *Monitor) filtered(i int) float64 {
	const half = monitorMedianWindow / 2
	lo, hi := max(i-half, 0), min(i+half, len(m.series)-1)
	w := m.medians[:0]
	for _, p := range m.series[lo : hi+1] {
		w = append(w, p.Cycle)
	}
	slices.Sort(w)
	return w[len(w)/2]
}

// Series returns the full estimate series fed so far.
func (m *Monitor) Series() []CyclePoint { return append([]CyclePoint(nil), m.series...) }

// RestoreMonitor rebuilds a streaming monitor from a previously exported
// series (Monitor.Series of an earlier run, persisted across restarts).
// Changes already confirmed by the old monitor are re-detected and
// marked emitted, so a restored monitor only reports changes that happen
// after the restore point — a restart must not re-announce every
// historical plan switch.
func RestoreMonitor(series []CyclePoint) (*Monitor, error) {
	for i := 1; i < len(series); i++ {
		if series[i].T < series[i-1].T {
			return nil, fmt.Errorf("core: restore monitor: series not chronological at %d", i)
		}
	}
	m := NewMonitor()
	m.series = append([]CyclePoint(nil), series...)
	_, m.emitted = m.scan()
	return m, nil
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
