package experiments

import (
	"fmt"
	"io"
	"math"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// Corridor demonstrates the community use case from the paper's
// introduction ("transportation researchers can investigate the
// correlation between traffic light scheduling and traffic flow, and
// then make optimization accordingly"): the schedules of an arterial's
// lights are identified from taxi traces alone, the corridor's
// coordination quality is measured, and a green-wave offset plan is
// recommended and evaluated.
func Corridor(w io.Writer, seed int64) error {
	section(w, "Corridor retiming — identify an arterial, recommend a green wave")
	// Build a 2x5 city whose bottom row is a coordinated-cycle arterial
	// with deliberately bad (random) offsets.
	wcfg := DefaultWorldConfig()
	wcfg.Rows, wcfg.Cols = 2, 5
	wcfg.Seed = seed
	gcfg := wcfg.GridConfig()
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		return err
	}
	const corridorCycle, corridorRed = 110.0, 50.0
	nLights := gcfg.Cols
	trueOffsets := []float64{13, 71, 34, 96, 55} // deliberately uncoordinated
	for c := 0; c < nLights; c++ {
		net.Node(roadnet.NodeID(c)).Light.Ctrl = lights.Static{S: lights.Schedule{
			Cycle: corridorCycle, Red: corridorRed, Offset: trueOffsets[c],
		}}
	}
	world, err := buildWorldOn(net, wcfg)
	if err != nil {
		return err
	}
	results, err := core.RunPipeline(world.Part, 0, world.Horizon, core.DefaultPipelineConfig())
	if err != nil {
		return err
	}
	// Identified schedules of the eastbound corridor approaches.
	identified := make([]lights.Schedule, nLights)
	okAll := true
	for c := 0; c < nLights; c++ {
		res, ok := results[mapmatch.Key{Light: roadnet.NodeID(c), Approach: lights.EastWest}]
		if !ok || res.Err != nil {
			okAll = false
			continue
		}
		identified[c] = lights.Schedule{
			Cycle:  res.Cycle,
			Red:    res.Red,
			Offset: res.WindowStart + res.GreenToRedPhase,
		}
	}
	if !okAll {
		return fmt.Errorf("experiments: corridor approaches not all identified")
	}
	// The EW approach runs the Opposed split of the NS base schedule.
	truthEW := make([]lights.Schedule, nLights)
	for c := 0; c < nLights; c++ {
		truthEW[c] = net.Node(roadnet.NodeID(c)).Light.ScheduleFor(lights.EastWest, 0)
	}
	fmt.Fprintf(w, "%-8s %-22s %-22s\n", "light", "truth cyc/red/offset", "identified cyc/red/offset")
	for c := 0; c < nLights; c++ {
		fmt.Fprintf(w, "%-8d %5.0f / %4.0f / %5.1f   %6.1f / %4.0f / %5.1f\n",
			c, truthEW[c].Cycle, truthEW[c].Red, math.Mod(truthEW[c].Offset, truthEW[c].Cycle),
			identified[c].Cycle, identified[c].Red, math.Mod(identified[c].Offset, identified[c].Cycle))
	}
	// Drive times between adjacent corridor lights at free flow.
	travel := make([]float64, nLights-1)
	for i := range travel {
		travel[i] = gcfg.Spacing / gcfg.SpeedLimit
	}
	current, err := lights.CorridorDelay(truthEW, travel)
	if err != nil {
		return err
	}
	// Recommend offsets from the *identified* timing; evaluate the
	// retimed corridor against ground-truth cycle/red (the city keeps
	// its splits and only shifts offsets).
	medCycle := identified[0].Cycle
	recOffsets, err := lights.GreenWaveOffsets(corridorCycle, corridorRed, identified[0].Offset, travel)
	if err != nil {
		return err
	}
	retimed := make([]lights.Schedule, nLights)
	for c := 0; c < nLights; c++ {
		retimed[c] = lights.Schedule{Cycle: truthEW[c].Cycle, Red: truthEW[c].Red, Offset: recOffsets[c]}
	}
	after, err := lights.CorridorDelay(retimed, travel)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "identified corridor cycle: %.1f s (truth %.0f s)\n", medCycle, corridorCycle)
	fmt.Fprintf(w, "corridor red-wait today (uncoordinated offsets): %.0f s per run\n", current)
	fmt.Fprintf(w, "after green-wave retiming from identified data:  %.0f s per run\n", after)
	if current > 0 {
		fmt.Fprintf(w, "corridor delay removed: %.0f%%\n", 100*(current-after)/current)
	}
	return nil
}
