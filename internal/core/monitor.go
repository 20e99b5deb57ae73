package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

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

// MonitorConfig tunes the scheduling-change detector.
type MonitorConfig struct {
	// Tolerance is the largest cycle-length deviation (seconds) still
	// considered the same scheduling policy.
	Tolerance float64
	// Confirm is how many consecutive deviating estimates are needed to
	// declare a scheduling change; isolated DFT outliers (the ~7 % gross
	// errors of Fig. 14) never persist, so they are absorbed.
	Confirm int
	// MedianWindow is the size of the running-median prefilter (odd; 1
	// disables it).
	MedianWindow int
}

// DefaultMonitorConfig absorbs isolated estimation outliers while
// confirming genuine plan switches within 3 estimates (15 minutes at the
// paper's 5-minute cadence).
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{Tolerance: 8, Confirm: 3, MedianWindow: 3}
}

// Validate checks the configuration.
func (c MonitorConfig) Validate() error {
	switch {
	case c.Tolerance <= 0:
		return fmt.Errorf("core: non-positive tolerance %v", c.Tolerance)
	case c.Confirm < 1:
		return fmt.Errorf("core: Confirm %d < 1", c.Confirm)
	case c.MedianWindow < 1 || c.MedianWindow%2 == 0:
		return fmt.Errorf("core: MedianWindow %d must be odd and >= 1", c.MedianWindow)
	}
	return nil
}

// MedianFilter returns the running median of xs with the given odd window,
// shrinking the window at the edges. It is the outlier prefilter used
// before change-point detection.
func MedianFilter(xs []float64, window int) []float64 {
	if window <= 1 || len(xs) == 0 {
		return append([]float64(nil), xs...)
	}
	half := window / 2
	out := make([]float64, len(xs))
	buf := make([]float64, 0, window)
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		buf = append(buf[:0], xs[lo:hi+1]...)
		sort.Float64s(buf)
		out[i] = buf[len(buf)/2]
	}
	return out
}

// DetectSchedulingChanges scans a chronological cycle-length series for
// sustained plateau shifts. The series is median-prefiltered, then a
// change is declared when Confirm consecutive estimates all deviate from
// the current plateau by more than Tolerance while agreeing with each
// other within Tolerance.
func DetectSchedulingChanges(series []CyclePoint, cfg MonitorConfig) ([]SchedulingChange, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(series) == 0 {
		return nil, nil
	}
	for i := 1; i < len(series); i++ {
		if series[i].T < series[i-1].T {
			return nil, fmt.Errorf("core: series not chronological at %d", i)
		}
	}
	vals := make([]float64, len(series))
	for i, p := range series {
		vals[i] = p.Cycle
	}
	vals = MedianFilter(vals, cfg.MedianWindow)

	var changes []SchedulingChange
	plateau := vals[0]
	run := 0       // consecutive deviating estimates
	runStart := -1 // index of the first estimate of the run
	for i := 1; i < len(vals); i++ {
		if math.Abs(vals[i]-plateau) <= cfg.Tolerance {
			run = 0
			runStart = -1
			continue
		}
		// Deviating. Does it continue the current run (agree with the
		// run's first value)?
		if run > 0 && math.Abs(vals[i]-vals[runStart]) > cfg.Tolerance {
			// A different deviation: restart the run here.
			run = 0
		}
		if run == 0 {
			runStart = i
		}
		run++
		if run >= cfg.Confirm {
			newPlateau := medianOf(vals[runStart : runStart+run])
			changes = append(changes, SchedulingChange{
				T:    series[runStart].T,
				From: plateau,
				To:   newPlateau,
			})
			plateau = newPlateau
			run = 0
			runStart = -1
		}
	}
	return changes, nil
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Monitor is the streaming form of the detector: feed one estimate at a
// time (the pipeline produces one per light every 5 minutes) and collect
// confirmed scheduling changes as they happen.
//
// It returns exactly what DetectSchedulingChanges over the whole series
// would, without rescanning the series. A filtered value is final once its
// median window is complete — index i of n points, i+MedianWindow/2 < n —
// and the detector's state after the last such index never changes again.
// Only the up to MedianWindow/2 newest points see a truncated window whose
// median the next point may move, so each Feed advances that state (final)
// over the indexes that just became final and replays the provisional tail
// on a copy of it.
type Monitor struct {
	cfg    MonitorConfig
	series []CyclePoint
	// emitted is the number of changes reported so far. A change confirmed
	// inside the provisional tail can vanish when a later point moves a
	// median; it stays counted, so the next change at that position in the
	// batch result is not reported — as when every Feed ran the batch scan.
	emitted int

	next    int // first index the final state has not consumed
	final   detector
	nFinal  int       // changes confirmed by the final state
	tail    []float64 // provisional copy of final.run, cap Confirm
	medians []float64 // one median window, cap MedianWindow
}

// detector is the plateau scan's state between two estimates.
type detector struct {
	plateau float64
	// run holds the filtered values of the current run of estimates that
	// deviate from the plateau while agreeing with the run's first; runT is
	// the time of that first estimate. The run is confirmed, and emptied,
	// when it reaches Confirm values.
	run  []float64
	runT float64
}

// step consumes the filtered estimate v at time t — one iteration of the
// scan in DetectSchedulingChanges — and reports the change it confirms.
func (d *detector) step(t, v float64, cfg MonitorConfig) (SchedulingChange, bool) {
	if math.Abs(v-d.plateau) <= cfg.Tolerance {
		d.run = d.run[:0]
		return SchedulingChange{}, false
	}
	if len(d.run) > 0 && math.Abs(v-d.run[0]) > cfg.Tolerance {
		d.run = d.run[:0] // a different deviation: the run restarts here
	}
	if len(d.run) == 0 {
		d.runT = t
	}
	d.run = append(d.run, v)
	if len(d.run) < cfg.Confirm {
		return SchedulingChange{}, false
	}
	slices.Sort(d.run) // the run is spent; its median is the new plateau
	c := SchedulingChange{T: d.runT, From: d.plateau, To: d.run[len(d.run)/2]}
	d.plateau = c.To
	d.run = d.run[:0]
	return c, true
}

// NewMonitor returns a streaming scheduling-change monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:     cfg,
		final:   detector{run: make([]float64, 0, cfg.Confirm)},
		tail:    make([]float64, 0, cfg.Confirm),
		medians: make([]float64, 0, cfg.MedianWindow),
	}, nil
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
		if c, ok := d.step(t, v, m.cfg); ok {
			if total >= m.emitted {
				fresh = append(fresh, c)
			}
			total++
		}
	}
	total = m.nFinal
	for half := m.cfg.MedianWindow / 2; m.next+half < len(m.series); m.next++ {
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

// filtered is MedianFilter(cycles of the series, MedianWindow)[i].
func (m *Monitor) filtered(i int) float64 {
	half := m.cfg.MedianWindow / 2
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
func RestoreMonitor(cfg MonitorConfig, series []CyclePoint) (*Monitor, error) {
	m, err := NewMonitor(cfg)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(series); i++ {
		if series[i].T < series[i-1].T {
			return nil, fmt.Errorf("core: restore monitor: series not chronological at %d", i)
		}
	}
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
