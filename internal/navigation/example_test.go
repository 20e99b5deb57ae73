package navigation_test

import (
	"fmt"

	"taxilight/internal/lights"
	"taxilight/internal/navigation"
)

func ExampleAdvise() {
	// 500 m from a light whose red (39 s) just started: slowing to reach
	// the green onset beats racing to the stop line.
	sched := lights.Schedule{Cycle: 98, Red: 39, Offset: 0}
	adv, err := navigation.Advise(sched, 500, 0, navigation.DefaultAdvisoryConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("recommend %.0f km/h, arriving on %s\n", adv.SpeedMS*3.6, adv.ArrivalState)
	// Output:
	// recommend 46 km/h, arriving on green
}

func ExampleBuildFig15Grid() {
	cfg := navigation.DefaultFig15Config()
	cfg.Rows, cfg.Cols = 3, 3
	net, err := navigation.BuildFig15Grid(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d intersections, %d directed segments, all signalised: %v\n",
		net.NumNodes(), net.NumSegments(), len(net.SignalisedNodes()) == net.NumNodes())
	// Output:
	// 9 intersections, 24 directed segments, all signalised: true
}
