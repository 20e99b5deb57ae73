// Monitor: continuous traffic-light monitoring (Section VII). A
// pre-programmed dynamic light switches between an off-peak and a peak
// plan during the day; the monitor re-estimates the cycle length every
// five minutes and the streaming change-point detector reports each plan
// switch as it is confirmed.
package main

import (
	"fmt"
	"log"

	"taxilight/internal/core"
	"taxilight/internal/experiments"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trafficsim"
)

func main() {
	// A 3x3 grid whose centre light runs a two-plan daily schedule:
	// off-peak 90 s, peak 150 s during 07:00-10:00 and 17:00-20:00.
	// Half a simulated day of traffic (04:00 - 13:00 covers two switches),
	// on a grid whose other lights draw cycles of 60-160 s.
	cfg := experiments.WorldConfig{
		Rows: 3, Cols: 3,
		Taxis:        200,
		Seed:         1,
		Horizon:      13 * 3600,
		GridOverride: func(g *roadnet.GridConfig) { g.CycleMin, g.CycleMax = 60, 160 },
		SimOverride:  func(s *trafficsim.Config) { s.StartTime = 4 * 3600 },
	}
	net, err := roadnet.GenerateGrid(cfg.GridConfig())
	if err != nil {
		log.Fatal(err)
	}
	offPeak := lights.Schedule{Cycle: 90, Red: 40, Offset: 10}
	peak := lights.Schedule{Cycle: 150, Red: 75, Offset: 10}
	dyn, err := lights.NewDynamic([]lights.PlanEntry{
		{DaySecond: 7 * 3600, S: peak},
		{DaySecond: 10 * 3600, S: offPeak},
		{DaySecond: 17 * 3600, S: peak},
		{DaySecond: 20 * 3600, S: offPeak},
	})
	if err != nil {
		log.Fatal(err)
	}
	target := roadnet.NodeID(4)
	net.Node(target).Light.Ctrl = dyn

	world, err := experiments.NewWorld(net, cfg)
	if err != nil {
		log.Fatal(err)
	}
	world.Collect()
	fmt.Printf("collected %d records between 04:00 and 13:00\n", len(world.Records))
	stopIdx, err := core.BuildStopIndex(world.Part, core.DefaultStopExtractConfig())
	if err != nil {
		log.Fatal(err)
	}
	key := mapmatch.Key{Light: target, Approach: lights.NorthSouth}
	samples := core.SpeedSamplesNear(stopIdx.FilterDwellRecords(world.Part[key]), 120)

	var mon core.Monitor
	var estimates []core.CyclePoint
	fmt.Println("monitoring the centre light every 5 minutes (trailing 30-minute window):")
	const window, every = 1800.0, 300.0
	for t := 4*3600 + window; t <= 13*3600; t += every {
		est, err := core.IdentifyCycle(samples, t-window, t, core.DefaultCycleConfig())
		if err != nil {
			continue
		}
		p := core.CyclePoint{T: t, Cycle: est}
		estimates = append(estimates, p)
		for _, ch := range mon.Feed(p) {
			fmt.Printf("  %5.2f h: scheduling change detected, %.0f s -> %.0f s (truth switches at 7 h and 10 h)\n",
				ch.T/3600, ch.From, ch.To)
		}
	}
	fmt.Printf("estimates collected: %d; last estimate %.1f s (true cycle now %.0f s)\n",
		len(estimates), estimates[len(estimates)-1].Cycle, dyn.ScheduleAt(13*3600).Cycle)
}
