package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"taxilight/internal/dsp"
	"taxilight/internal/lights"
)

// synthSamplesForSliding builds a clean irregular speed trace for the
// sliding-series test.
func synthSamplesForSliding(s lights.Schedule, horizon float64) []dsp.Sample {
	rng := rand.New(rand.NewSource(3))
	var out []dsp.Sample
	for t := rng.Float64() * 15; t < horizon; t += 15 * (0.5 + rng.Float64()) {
		v := 35 + rng.NormFloat64()*8
		if s.StateAt(t) == lights.Red {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		out = append(out, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
	}
	return out
}

func seriesFromPlan(plan []struct {
	until float64
	cycle float64
}, step float64) []CyclePoint {
	var out []CyclePoint
	t := 0.0
	for _, seg := range plan {
		for ; t < seg.until; t += step {
			out = append(out, CyclePoint{T: t, Cycle: seg.cycle})
		}
	}
	return out
}

func TestMedianFilter(t *testing.T) {
	xs := []float64{90, 90, 300, 90, 90} // one gross DFT outlier
	out := MedianFilter(xs, 3)
	if out[2] != 90 {
		t.Fatalf("outlier survived: %v", out)
	}
	// window 1 = identity
	id := MedianFilter(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Fatal("window-1 filter not identity")
		}
	}
	if got := MedianFilter(nil, 3); len(got) != 0 {
		t.Fatal("empty input")
	}
}

func TestMedianFilterDoesNotMutate(t *testing.T) {
	xs := []float64{1, 100, 1}
	MedianFilter(xs, 3)
	if xs[1] != 100 {
		t.Fatal("input mutated")
	}
}

func TestDetectSchedulingChangesBasic(t *testing.T) {
	// Off-peak 90 s until t=7200, peak 150 s until 14400, back to 90 s.
	series := seriesFromPlan([]struct{ until, cycle float64 }{
		{7200, 90}, {14400, 150}, {21600, 90},
	}, 300)
	changes, err := DetectSchedulingChanges(series, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 {
		t.Fatalf("changes = %+v, want 2", changes)
	}
	if math.Abs(changes[0].T-7200) > 600 {
		t.Fatalf("first change at %v, want ~7200", changes[0].T)
	}
	if changes[0].From != 90 || changes[0].To != 150 {
		t.Fatalf("first change %v -> %v", changes[0].From, changes[0].To)
	}
	if math.Abs(changes[1].T-14400) > 600 || changes[1].To != 90 {
		t.Fatalf("second change %+v", changes[1])
	}
}

func TestDetectSchedulingChangesIgnoresOutliers(t *testing.T) {
	series := seriesFromPlan([]struct{ until, cycle float64 }{{7200, 98}}, 300)
	// Inject isolated gross errors (the ~7 % DFT failures of Fig. 14).
	series[5].Cycle = 240
	series[13].Cycle = 45
	changes, err := DetectSchedulingChanges(series, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("outliers reported as changes: %+v", changes)
	}
}

func TestDetectSchedulingChangesNoisyEstimates(t *testing.T) {
	// Estimates jitter by +-3 s around each plateau; tolerance 8 s must
	// absorb the jitter but still catch the 90 -> 150 switch.
	series := seriesFromPlan([]struct{ until, cycle float64 }{
		{7200, 90}, {14400, 150},
	}, 300)
	for i := range series {
		series[i].Cycle += float64((i%7)-3) * 1.0
	}
	changes, err := DetectSchedulingChanges(series, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Fatalf("changes = %+v, want exactly 1", changes)
	}
	if math.Abs(changes[0].To-150) > 5 {
		t.Fatalf("new plateau %v, want ~150", changes[0].To)
	}
}

func TestDetectSchedulingChangesValidation(t *testing.T) {
	bad := []MonitorConfig{
		{Tolerance: 0, Confirm: 3, MedianWindow: 3},
		{Tolerance: 5, Confirm: 0, MedianWindow: 3},
		{Tolerance: 5, Confirm: 3, MedianWindow: 2},
		{Tolerance: 5, Confirm: 3, MedianWindow: 0},
	}
	for i, cfg := range bad {
		if _, err := DetectSchedulingChanges(nil, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Non-chronological series rejected.
	series := []CyclePoint{{T: 100, Cycle: 90}, {T: 50, Cycle: 90}}
	if _, err := DetectSchedulingChanges(series, DefaultMonitorConfig()); err == nil {
		t.Fatal("out-of-order series accepted")
	}
	// Empty series is fine.
	out, err := DetectSchedulingChanges(nil, DefaultMonitorConfig())
	if err != nil || out != nil {
		t.Fatalf("empty series: %v, %v", out, err)
	}
}

func TestMonitorStreaming(t *testing.T) {
	m, err := NewMonitor(DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []SchedulingChange
	series := seriesFromPlan([]struct{ until, cycle float64 }{
		{3600, 90}, {7200, 150},
	}, 300)
	for _, p := range series {
		got = append(got, m.Feed(p)...)
	}
	if len(got) != 1 {
		t.Fatalf("streaming changes = %+v, want 1", got)
	}
	if math.Abs(got[0].T-3600) > 600 {
		t.Fatalf("change at %v, want ~3600", got[0].T)
	}
	if n := len(m.Series()); n != len(series) {
		t.Fatalf("Series len = %d, want %d", n, len(series))
	}
	// Feeding more stable points must not re-emit the same change.
	extra := m.Feed(CyclePoint{T: 7500, Cycle: 150})
	if len(extra) != 0 {
		t.Fatalf("duplicate change emitted: %+v", extra)
	}
}

func TestNewMonitorRejectsBadConfig(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func BenchmarkDetectSchedulingChanges(b *testing.B) {
	series := seriesFromPlan([]struct{ until, cycle float64 }{
		{86400, 90}, {2 * 86400, 150}, {3 * 86400, 90},
	}, 300)
	cfg := DefaultMonitorConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = DetectSchedulingChanges(series, cfg)
	}
}

func TestSlidingCycleSeries(t *testing.T) {
	// Clean synthetic speeds at a 98 s cycle: every window estimates ~98.
	sched := lights.Schedule{Cycle: 98, Red: 39, Offset: 7}
	series, err := SlidingCycleSeries(synthSamplesForSliding(sched, 7200), 0, 7200, 1800, 600, DefaultCycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 8 {
		t.Fatalf("series = %d points", len(series))
	}
	for i, p := range series {
		if math.Abs(p.Cycle-98) > 5 {
			t.Fatalf("point %d: cycle %v", i, p.Cycle)
		}
		if i > 0 && p.T <= series[i-1].T {
			t.Fatal("series not chronological")
		}
	}
	// Bad specs rejected.
	if _, err := SlidingCycleSeries(nil, 0, 100, 0, 10, DefaultCycleConfig()); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := SlidingCycleSeries(nil, 0, 100, 1800, 10, DefaultCycleConfig()); err == nil {
		t.Fatal("window beyond span accepted")
	}
}

// batchMonitor is the streaming monitor as it was before it kept detector
// state: every Feed reruns DetectSchedulingChanges over the whole series.
// It is the oracle the incremental Monitor is held to.
type batchMonitor struct {
	cfg     MonitorConfig
	series  []CyclePoint
	emitted int
}

func (m *batchMonitor) Feed(p CyclePoint) []SchedulingChange {
	m.series = append(m.series, p)
	all, err := DetectSchedulingChanges(m.series, m.cfg)
	if err != nil {
		panic(err)
	}
	if len(all) <= m.emitted {
		return nil
	}
	fresh := all[m.emitted:]
	m.emitted = len(all)
	return fresh
}

func restoreBatchMonitor(t *testing.T, cfg MonitorConfig, series []CyclePoint) *batchMonitor {
	t.Helper()
	all, err := DetectSchedulingChanges(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &batchMonitor{cfg: cfg, series: append([]CyclePoint(nil), series...), emitted: len(all)}
}

// noisyCycleSeries strings together what a light's estimate series is
// made of: plateaus with jitter, isolated gross errors and bursts of them
// (some as long as a confirmation run), reversals back to the old plan
// and plateaus shorter than a confirmation.
func noisyCycleSeries(rng *rand.Rand, n int) []CyclePoint {
	out := make([]CyclePoint, 0, n)
	plans := []float64{60, 90, 97.5, 120, 150}
	plateau := plans[rng.Intn(len(plans))]
	at := 0.0
	for len(out) < n {
		previous := plateau
		for plateau == previous {
			plateau = plans[rng.Intn(len(plans))]
		}
		for k, length := 0, 1+rng.Intn(9); k < length && len(out) < n; k++ {
			v := plateau + rng.Float64()*6 - 3
			switch rng.Intn(8) {
			case 0: // a gross DFT error, possibly the start of a burst
				v = 40 + rng.Float64()*260
			case 1: // a relapse to the plan before
				v = previous
			}
			if rng.Intn(3) > 0 { // equal times are chronological too
				at += 300
			}
			out = append(out, CyclePoint{T: at, Cycle: v})
			if rng.Intn(6) == 0 && len(out) < n { // the burst repeats its value
				at += 300
				out = append(out, CyclePoint{T: at, Cycle: v})
			}
		}
	}
	return out
}

func sameChanges(a, b []SchedulingChange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].T, b[i].T) || !sameBits(a[i].From, b[i].From) || !sameBits(a[i].To, b[i].To) {
			return false
		}
	}
	return true
}

// TestMonitorIncrementalMatchesBatch: whatever the series, every Feed of
// the incremental monitor returns what the batch rescan returns and counts
// what it counts — the count matters because a change confirmed on a
// provisional median can vanish, and both must then swallow the next one —
// and a monitor restored at any prefix carries on the same way.
func TestMonitorIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	reported, vanished := 0, 0
	for _, window := range []int{1, 3, 5} {
		for _, confirm := range []int{1, 2, 3, 4} {
			cfg := MonitorConfig{Tolerance: 8, Confirm: confirm, MedianWindow: window}
			for trial := 0; trial < 8; trial++ {
				series := noisyCycleSeries(rng, 20+rng.Intn(40))
				// follow feeds series[from:] to both and compares every step.
				follow := func(mon *Monitor, ref *batchMonitor, from int) {
					for i := from; i < len(series); i++ {
						got, want := mon.Feed(series[i]), ref.Feed(series[i])
						if !sameChanges(got, want) || mon.emitted != ref.emitted {
							t.Fatalf("window %d confirm %d, restored at %d, point %d: Feed = %+v (emitted %d), the batch scan gives %+v (emitted %d)\nseries %+v",
								window, confirm, from, i, got, mon.emitted, want, ref.emitted, series[:i+1])
						}
						if from == 0 {
							reported += len(want)
							if all, _ := DetectSchedulingChanges(series[:i+1], cfg); len(all) < ref.emitted {
								vanished++
							}
						}
					}
				}
				mon, err := NewMonitor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				follow(mon, &batchMonitor{cfg: cfg}, 0)
				if got := mon.Series(); len(got) != len(series) || got[len(got)-1] != series[len(series)-1] {
					t.Fatalf("Series() has %d points, fed %d", len(got), len(series))
				}
				for at := 1; at <= len(series); at++ {
					restored, err := RestoreMonitor(cfg, series[:at])
					if err != nil {
						t.Fatal(err)
					}
					ref := restoreBatchMonitor(t, cfg, series[:at])
					if restored.emitted != ref.emitted {
						t.Fatalf("window %d confirm %d: restored at %d with %d changes emitted, the batch scan finds %d",
							window, confirm, at, restored.emitted, ref.emitted)
					}
					follow(restored, ref, at)
				}
			}
		}
	}
	if reported < 200 || vanished < 20 {
		t.Fatalf("series exercise too little: %d changes reported, %d steps with a vanished provisional change", reported, vanished)
	}
}

func TestMonitorFeedRejectsOlderPoint(t *testing.T) {
	mon, _ := NewMonitor(DefaultMonitorConfig())
	mon.Feed(CyclePoint{T: 600, Cycle: 90})
	mon.Feed(CyclePoint{T: 600, Cycle: 90}) // equal times are in order
	defer func() {
		if recover() == nil {
			t.Fatal("an estimate older than the last was accepted")
		}
	}()
	mon.Feed(CyclePoint{T: 300, Cycle: 90})
}

// TestMonitorFeedAllocs: a Feed that confirms nothing — the steady state
// of every key, every round — allocates nothing once the series has room,
// however long the series is.
func TestMonitorFeedAllocs(t *testing.T) {
	mon, _ := NewMonitor(DefaultMonitorConfig())
	at := 0.0
	feed := func(cycle float64) []SchedulingChange {
		at += 300
		return mon.Feed(CyclePoint{T: at, Cycle: cycle})
	}
	for i := 0; i < 500; i++ {
		feed(90 + float64(i%5))
	}
	mon.series = slices.Grow(mon.series, 300)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Jitter, and now and then a gross error the median absorbs.
		v := 90 + float64(i%5)
		if i%17 == 0 {
			v = 240
		}
		i++
		if ch := feed(v); ch != nil {
			t.Fatalf("steady series confirmed %+v", ch)
		}
	})
	if allocs != 0 {
		t.Fatalf("Feed allocates %.1f objects per call with nothing confirmed, want 0", allocs)
	}
}
