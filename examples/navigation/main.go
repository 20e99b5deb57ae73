// Navigation: the paper's demo application (Section VIII-B). With the
// real-time light schedules known, a navigator can trade a slightly
// longer detour against the red lights it would otherwise sit at. This
// example routes the same trips with conventional shortest-time
// navigation and with light-aware navigation and prints the realised
// travel times.
package main

import (
	"fmt"
	"log"

	"taxilight/internal/navigation"
	"taxilight/internal/roadnet"
)

func main() {
	// The Fig. 15 topology: 1 km blocks, a light on every intersection,
	// cycles drawn from [120 s, 300 s], red == green.
	cfg := navigation.DefaultFig15Config()
	net, err := navigation.BuildFig15Grid(cfg)
	if err != nil {
		log.Fatal(err)
	}
	baseline := &navigation.ShortestTimePlanner{Net: net}
	aware := &navigation.BelievedPlanner{Net: net, Source: navigation.TruthSource{Net: net}}

	fmt.Println("three corner-to-corner trips, departing 90 s apart:")
	src := roadnet.NodeID(0)
	dst := roadnet.NodeID(cfg.Rows*cfg.Cols - 1)
	for i, depart := range []float64{600, 690, 780} {
		rb, err := navigation.Drive(net, baseline, src, dst, depart)
		if err != nil {
			log.Fatal(err)
		}
		ra, err := navigation.Drive(net, aware, src, dst, depart)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trip %d: baseline %5.0f s (%.1f km, %4.0f s waiting) | light-aware %5.0f s (%.1f km, %4.0f s waiting) | saved %4.1f%%\n",
			i+1,
			rb.Duration, rb.Distance/1000, rb.Waits,
			ra.Duration, ra.Distance/1000, ra.Waits,
			100*(rb.Duration-ra.Duration)/rb.Duration)
	}

	// The full Fig. 16 sweep: savings by trip distance.
	fmt.Println("\nFig. 16 sweep (mean over 40 random trips per distance):")
	points, err := navigation.CompareNavigation(net, cfg.SegmentMeters, navigation.DefaultCompareConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("  %5.1f km: baseline %6.1f s, light-aware %6.1f s, saving %5.1f%%\n",
			p.DistanceKM, p.Baseline, p.Aware, p.SavingPct)
	}
}
