// Intersection walk-through: every stage of the single-light procedure
// (Sections V and VI of the paper) applied step by step to one simulated
// intersection — cycle length by DFT, intersection-based enhancement,
// red duration from stop events, data superposition, and the
// sliding-window signal change.
package main

import (
	"fmt"
	"log"
	"math"

	"taxilight/internal/core"
	"taxilight/internal/experiments"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

func main() {
	cfg := experiments.DefaultWorldConfig()
	world, err := experiments.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Pick the grid-centre light's north-south approach.
	target := roadnet.NodeID(5)
	key := mapmatch.Key{Light: target, Approach: lights.NorthSouth}
	truth := world.Net.Node(target).Light.ScheduleFor(lights.NorthSouth, cfg.Horizon/2)
	fmt.Printf("target: light %d, NS approach; ground truth cycle %.0f s, red %.0f s\n",
		target, truth.Cycle, truth.Red)

	ms := world.Part[key]
	fmt.Printf("records matched to this approach: %d\n", len(ms))

	// Stage 0: index stationary runs globally so passenger dwells can be
	// told apart from red-light stops.
	stopIdx, err := core.BuildStopIndex(world.Part, core.DefaultStopExtractConfig())
	if err != nil {
		log.Fatal(err)
	}
	clean := stopIdx.FilterDwellRecords(ms)
	fmt.Printf("after dwell filtering: %d records\n", len(clean))

	// Stage 1: cycle length from the speed signal near the stop line.
	samples := core.SpeedSamplesNear(clean, 120)
	cycle, err := core.IdentifyCycle(samples, 0, cfg.Horizon, core.DefaultCycleConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[V] cycle length by DFT: %.2f s (error %.2f s)\n", cycle, math.Abs(cycle-truth.Cycle))

	// Stage 1b: the intersection-based enhancement, which the pipeline
	// applies to every approach whose perpendicular approach has samples.
	perp := core.SpeedSamplesNear(stopIdx.FilterDwellRecords(world.Part[key.PerpendicularKey()]), 120)
	enhanced, err := core.IdentifyCycleEnhanced(samples, perp, 0, cfg.Horizon, core.DefaultCycleConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[V-B] with perpendicular enhancement (Eq. 3): %.2f s\n", enhanced)

	// Stage 2: red duration from stop events (Section VI-A's data): the
	// red under which the stops' report counts are most likely.
	stops := stopIdx.Stops(key)
	red, err := core.IdentifyRed(stops, cycle, core.DefaultRedConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[VI-A] stop events: %d; red duration estimate: %.1f s (error %.1f s)\n",
		len(stops), red, math.Abs(red-truth.Red))

	// Stage 3: superpose all samples into one cycle (Fig. 10) and find
	// the change points with a sliding window of that red (Fig. 11).
	folded, err := core.Superpose(samples, cycle, 0)
	if err != nil {
		log.Fatal(err)
	}
	change, err := core.IdentifyChange(folded, cycle, red)
	if err != nil {
		log.Fatal(err)
	}
	truePhase := math.Mod(truth.Offset, truth.Cycle)
	fmt.Printf("\n[VI-B/C] superposed %d samples into one %.0f s cycle\n", len(folded), cycle)
	fmt.Printf("green->red at phase %.0f s (truth %.0f s, circular error %.1f s)\n",
		change.GreenToRed, truePhase, core.PhaseError(change.GreenToRed, truePhase, cycle))
	fmt.Printf("red->green at phase %.0f s (mean speed inside red window: %.1f km/h)\n",
		change.RedToGreen, change.MinWindowMean)
}
