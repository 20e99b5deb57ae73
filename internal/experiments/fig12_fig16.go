package experiments

import (
	"fmt"
	"io"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/navigation"
	"taxilight/internal/roadnet"
)

// Fig12Config controls the continuous-monitoring experiment.
type Fig12Config struct {
	// Days of simulated monitoring (the paper shows 3 days).
	Days int
	// EstimateEvery is the re-estimation period in seconds (paper: 5 min).
	EstimateEvery float64
	// Window is the trailing data window per estimate, seconds.
	Window float64
	Taxis  int
	Seed   int64
}

// DefaultFig12Config monitors one pre-programmed dynamic light for a
// simulated day at the paper's 5-minute cadence.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{Days: 1, EstimateEvery: 300, Window: 1800, Taxis: 200, Seed: 1}
}

// Fig12 reproduces the continuous cycle-length monitoring of Fig. 12: a
// pre-programmed dynamic light is watched for several days; the estimate
// series shows the peak/off-peak plateaus, and the scheduling-change
// detector recovers the plan switch times.
func Fig12(w io.Writer, cfg Fig12Config) error {
	if cfg.Days < 1 || cfg.EstimateEvery <= 0 || cfg.Window <= 0 {
		return fmt.Errorf("experiments: bad Fig12 config %+v", cfg)
	}
	horizon := float64(cfg.Days) * 86400
	wcfg := DefaultWorldConfig()
	wcfg.Rows, wcfg.Cols = 3, 3
	wcfg.Taxis = cfg.Taxis
	wcfg.Seed = cfg.Seed
	wcfg.Horizon = horizon
	wcfg.DynamicShare = 0 // the target light gets a controlled dynamic plan
	// Give the centre intersection a known two-plan schedule: off-peak
	// 90 s, peak 150 s (07:00-10:00 and 17:00-20:00), as category 2 of
	// Section III describes.
	offPeak := lights.Schedule{Cycle: 90, Red: 40, Offset: 10}
	peak := lights.Schedule{Cycle: 150, Red: 75, Offset: 10}
	dyn, err := lights.NewDynamic([]lights.PlanEntry{
		{DaySecond: 7 * 3600, S: peak},
		{DaySecond: 10 * 3600, S: offPeak},
		{DaySecond: 17 * 3600, S: peak},
		{DaySecond: 20 * 3600, S: offPeak},
	})
	if err != nil {
		return err
	}
	target := roadnet.NodeID(4) // grid centre
	world2, err := rebuildWithDynamic(wcfg, target, dyn)
	if err != nil {
		return err
	}
	key := mapmatch.Key{Light: target, Approach: lights.NorthSouth}
	ms := world2.Part[key]
	stopIdx, err := core.BuildStopIndex(world2.Part, core.DefaultStopExtractConfig())
	if err != nil {
		return err
	}
	samples := core.SpeedSamplesNear(stopIdx.FilterDwellRecords(ms), 120)

	section(w, "Fig. 12 — continuous cycle-length monitoring")
	fmt.Fprintf(w, "target light: grid centre, off-peak cycle %v s, peak cycle %v s (07-10 h, 17-20 h)\n",
		offPeak.Cycle, peak.Cycle)
	mon, err := core.NewMonitor(core.DefaultMonitorConfig())
	if err != nil {
		return err
	}
	series, err := core.SlidingCycleSeries(samples, 0, horizon, cfg.Window, cfg.EstimateEvery, core.DefaultCycleConfig())
	if err != nil {
		return err
	}
	var changes []core.SchedulingChange
	for _, p := range series {
		changes = append(changes, mon.Feed(p)...)
	}
	// Print a decimated series (every 30 min) the way the figure reads.
	fmt.Fprintf(w, "%-8s %-10s %s\n", "time", "est cycle", "true cycle")
	for i, p := range series {
		if i%6 != 0 {
			continue
		}
		truth := dyn.ScheduleAt(p.T).Cycle
		fmt.Fprintf(w, "%5.1f h  %7.1f s  %7.1f s\n", p.T/3600, p.Cycle, truth)
	}
	fmt.Fprintf(w, "detected scheduling changes (truth: 7, 10, 17, 20 h daily):\n")
	for _, c := range changes {
		fmt.Fprintf(w, "  at %5.2f h: %5.1f s -> %5.1f s\n", c.T/3600, c.From, c.To)
	}
	if len(changes) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	return nil
}

// rebuildWithDynamic builds a world whose target light runs the given
// dynamic controller before any traffic is simulated.
func rebuildWithDynamic(cfg WorldConfig, target roadnet.NodeID, ctrl lights.Controller) (*World, error) {
	net, err := roadnet.GenerateGrid(cfg.GridConfig())
	if err != nil {
		return nil, err
	}
	net.Node(target).Light.Ctrl = ctrl
	return buildWorldOn(net, cfg)
}

// Fig16 reproduces the navigation comparison on the Fig. 15 grid: mean
// realised travel time of conventional shortest-time navigation vs
// light-aware navigation, per trip-distance class.
func Fig16(w io.Writer, rows, cols, trips int, seed int64) error {
	section(w, "Fig. 16 — shortest-time navigation performance comparison")
	ncfg := navigation.DefaultFig15Config()
	ncfg.Rows, ncfg.Cols = rows, cols
	ncfg.Seed = seed
	net, err := navigation.BuildFig15Grid(ncfg)
	if err != nil {
		return err
	}
	ccfg := navigation.DefaultCompareConfig()
	ccfg.TripsPerClass = trips
	ccfg.Seed = seed
	points, err := navigation.CompareNavigation(net, ncfg.SegmentMeters, ccfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "grid %dx%d, 1 km segments, cycles in [120, 300] s, red == green (Fig. 15 setup)\n", rows, cols)
	fmt.Fprintf(w, "%-10s %-14s %-16s %s\n", "distance", "baseline (s)", "light-aware (s)", "saving")
	var totBase, totAware float64
	for _, p := range points {
		fmt.Fprintf(w, "%6.1f km  %10.1f  %14.1f   %5.1f%%\n", p.DistanceKM, p.Baseline, p.Aware, p.SavingPct)
		totBase += p.Baseline
		totAware += p.Aware
	}
	if totBase > 0 {
		fmt.Fprintf(w, "overall saving: %.1f%% (paper: ~15%%, growing with trip distance)\n",
			100*(totBase-totAware)/totBase)
	}
	return nil
}

// Fig12Spectrogram renders the monitoring problem in the time-frequency
// domain: an STFT over the day-long interpolated speed signal of the
// dynamic light shows the plan switches as steps in the dominant-period
// track — the same information as Fig. 12's series, extracted by a
// different instrument.
func Fig12Spectrogram(w io.Writer, cfg Fig12Config) error {
	if cfg.Days < 1 {
		return fmt.Errorf("experiments: bad Fig12 config %+v", cfg)
	}
	horizon := float64(cfg.Days) * 86400
	wcfg := DefaultWorldConfig()
	wcfg.Rows, wcfg.Cols = 3, 3
	wcfg.Taxis = cfg.Taxis
	wcfg.Seed = cfg.Seed
	wcfg.Horizon = horizon
	offPeak := lights.Schedule{Cycle: 90, Red: 40, Offset: 10}
	peak := lights.Schedule{Cycle: 150, Red: 75, Offset: 10}
	dyn, err := lights.NewDynamic([]lights.PlanEntry{
		{DaySecond: 7 * 3600, S: peak},
		{DaySecond: 10 * 3600, S: offPeak},
		{DaySecond: 17 * 3600, S: peak},
		{DaySecond: 20 * 3600, S: offPeak},
	})
	if err != nil {
		return err
	}
	target := roadnet.NodeID(4)
	world, err := rebuildWithDynamic(wcfg, target, dyn)
	if err != nil {
		return err
	}
	key := mapmatch.Key{Light: target, Approach: lights.NorthSouth}
	stopIdx, err := core.BuildStopIndex(world.Part, core.DefaultStopExtractConfig())
	if err != nil {
		return err
	}
	samples := core.SpeedSamplesNear(stopIdx.FilterDwellRecords(world.Part[key]), 120)
	// The figure transforms the unclamped spline of the merged samples:
	// CycleInput's clamped grid would move a frame of the seed-1 track.
	merged, _, err := core.CycleInput(samples, 0, horizon, core.DefaultCycleConfig())
	if err != nil {
		return err
	}
	grid, err := dsp.ResampleSpline(merged, 0, horizon)
	if err != nil {
		return err
	}
	sg, err := stft(grid, 4096, 1800)
	if err != nil {
		return err
	}
	track, err := sg.dominantPeriodTrack(60, 200)
	if err != nil {
		return err
	}
	section(w, "Fig. 12 (spectrogram) — dominant period track of the dynamic light")
	fmt.Fprintf(w, "%-8s %-16s %s\n", "time", "STFT period (s)", "true cycle (s)")
	for f, p := range track {
		if f%4 != 0 {
			continue
		}
		at := float64(sg.frameStart[f]) + float64(sg.segLen)/2
		fmt.Fprintf(w, "%5.1f h  %10.1f      %10.1f\n", at/3600, p, dyn.ScheduleAt(at).Cycle)
	}
	return nil
}
