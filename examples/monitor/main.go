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
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

func main() {
	// A 3x3 grid whose centre light runs a two-plan daily schedule:
	// off-peak 90 s, peak 150 s during 07:00-10:00 and 17:00-20:00.
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 3, 3
	gcfg.DynamicShare = 0
	net, err := roadnet.GenerateGrid(gcfg)
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

	// Half a simulated day of traffic (04:00 - 13:00 covers two switches).
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = 200
	scfg.StartTime = 4 * 3600
	sim, err := trafficsim.New(scfg)
	if err != nil {
		log.Fatal(err)
	}
	tcfg := trace.DefaultGenConfig(sim, net.Projection())
	tcfg.Activity = nil
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	records := gen.Collect(13 * 3600)
	fmt.Printf("collected %d records between 04:00 and 13:00\n", len(records))

	matcher, err := mapmatch.New(net, trace.Epoch, mapmatch.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	part := matcher.PartitionRecords(records)
	stopIdx, err := core.BuildStopIndex(part, core.DefaultStopExtractConfig())
	if err != nil {
		log.Fatal(err)
	}
	key := mapmatch.Key{Light: target, Approach: lights.NorthSouth}
	samples := core.SpeedSamplesNear(stopIdx.FilterDwellRecords(part[key]), 120)

	mon, err := core.NewMonitor(core.DefaultMonitorConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("monitoring the centre light every 5 minutes (trailing 30-minute window):")
	const window, every = 1800.0, 300.0
	for t := 4*3600 + window; t <= 13*3600; t += every {
		est, err := core.IdentifyCycle(samples, t-window, t, core.DefaultCycleConfig())
		if err != nil {
			continue
		}
		for _, ch := range mon.Feed(core.CyclePoint{T: t, Cycle: est}) {
			fmt.Printf("  %5.2f h: scheduling change detected, %.0f s -> %.0f s (truth switches at 7 h and 10 h)\n",
				ch.T/3600, ch.From, ch.To)
		}
	}
	series := mon.Series()
	fmt.Printf("estimates collected: %d; last estimate %.1f s (true cycle now %.0f s)\n",
		len(series), series[len(series)-1].Cycle, dyn.ScheduleAt(13*3600).Cycle)
}
