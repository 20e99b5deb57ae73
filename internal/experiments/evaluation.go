package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/stats"
)

// table2Weights recreates the paper's highly unbalanced flows: nine
// monitored intersections whose per-hour record counts span a ~25x range
// (Table II: 198 .. 5071 records/hour).
func table2Weights(net *roadnet.Network) map[roadnet.NodeID]float64 {
	weights := make(map[roadnet.NodeID]float64, net.NumNodes())
	for i := 0; i < net.NumNodes(); i++ {
		weights[roadnet.NodeID(i)] = 1
	}
	// Mirror the paper's spread: one dominant arterial crossing, several
	// mid-range intersections, a couple of near-idle minor roads.
	profile := []float64{2, 60, 6, 3, 0.1, 9, 5, 1.2, 0.25}
	for i, w := range profile {
		if i < net.NumNodes() {
			weights[roadnet.NodeID(i)] = w
		}
	}
	return weights
}

// table2Roads are the paper's monitored intersection names (Table II).
var table2Roads = []string{
	"ShenNan/WenJin", "FuHua/FuTian", "FuHua/ZhongXinSi",
	"SunGang/BaoAn", "BaGua/BaGuaSan", "ShenNan/BeiDou",
	"HongLi/HuangGang", "FuHua/ZhongXinWu", "FuZhong/JinTian",
}

// Table2 reproduces Table II: the nine monitored intersections with
// their per-hour record counts, demonstrating the ~25x imbalance.
func Table2(w io.Writer, cfg WorldConfig) error {
	cfg.NodeWeights = nil // set below
	world, err := buildTable2World(cfg)
	if err != nil {
		return err
	}
	section(w, "Table II — monitored intersections and records per hour")
	counts := make(map[roadnet.NodeID]int)
	for key, ms := range world.Part {
		counts[key.Light] += len(ms)
	}
	hours := world.Horizon / 3600
	fmt.Fprintf(w, "%-3s %-18s %-22s %s\n", "ID", "Road Name", "Geo Location", "Records/Hour")
	minC, maxC := math.Inf(1), 0.0
	for i := 0; i < 9 && i < world.Net.NumNodes(); i++ {
		node := world.Net.Node(roadnet.NodeID(i))
		pt := world.Net.Projection().Inverse(node.Pos)
		perHour := float64(counts[node.ID]) / hours
		if perHour < minC {
			minC = perHour
		}
		if perHour > maxC {
			maxC = perHour
		}
		fmt.Fprintf(w, "%-3d %-18s %.3f, %.3f        %6.0f\n",
			i+1, table2Roads[i], pt.Lon, pt.Lat, perHour)
	}
	if minC > 0 {
		fmt.Fprintf(w, "imbalance: busiest/idlest = %.1fx (paper: 5071/198 = 25.6x)\n", maxC/minC)
	}
	return nil
}

func buildTable2World(cfg WorldConfig) (*World, error) {
	// Build the network first so weights can reference real node IDs.
	net, err := roadnet.GenerateGrid(cfg.GridConfig())
	if err != nil {
		return nil, err
	}
	cfg.NodeWeights = table2Weights(net)
	return buildWorldOn(net, cfg)
}

// Fig13 reproduces the ground-truth vs identified comparison at one time
// instant (the paper uses 15:22 Dec 05 2014): per monitored intersection,
// the identified cycle length and red duration next to the truth.
func Fig13(w io.Writer, cfg WorldConfig) error {
	world, err := buildTable2World(cfg)
	if err != nil {
		return err
	}
	section(w, "Fig. 13 — ground truth vs identified values at one instant")
	results, err := core.RunPipeline(world.Part, 0, world.Horizon, core.DefaultPipelineConfig())
	if err != nil {
		return err
	}
	at := world.Horizon / 2
	fmt.Fprintf(w, "%-3s %-9s %-24s %-24s\n", "ID", "approach", "cycle truth / est (err)", "red truth / est (err)")
	var cycErrs, redErrs []float64
	for i := 0; i < 9 && i < world.Net.NumNodes(); i++ {
		for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
			key := mapmatch.Key{Light: roadnet.NodeID(i), Approach: app}
			res, ok := results[key]
			if !ok || res.Err != nil {
				fmt.Fprintf(w, "%-3d %-9s (insufficient data)\n", i+1, app)
				continue
			}
			truth := world.Net.Node(key.Light).Light.ScheduleFor(app, at)
			ce := math.Abs(res.Cycle - truth.Cycle)
			re := math.Abs(res.Red - truth.Red)
			cycErrs = append(cycErrs, ce)
			redErrs = append(redErrs, re)
			fmt.Fprintf(w, "%-3d %-9s %5.0f / %6.1f (%4.1f)      %5.0f / %5.1f (%4.1f)\n",
				i+1, app, truth.Cycle, res.Cycle, ce, truth.Red, res.Red, re)
		}
	}
	cycMed, _ := stats.Median(cycErrs)
	redMed, _ := stats.Median(redErrs)
	fmt.Fprintf(w, "median errors: cycle %.1f s, red %.1f s (paper: < 5 s on average)\n", cycMed, redMed)
	fmt.Fprintf(w, "mean errors:   cycle %.1f s, red %.1f s\n", stats.Mean(cycErrs), stats.Mean(redErrs))
	return nil
}

// Fig14Errors collects identification errors across repeated randomised
// worlds, the raw material of Fig. 14's CDFs.
type Fig14Errors struct {
	Cycle, Red, Change []float64
	Failures           int
}

// CollectFig14 runs the full pipeline over `runs` independently seeded
// worlds and gathers per-approach absolute errors for cycle length, red
// duration and signal change time.
func CollectFig14(cfg WorldConfig, runs int) (Fig14Errors, error) {
	return CollectFig14With(cfg, core.DefaultPipelineConfig(), runs, false)
}

// Fig14 reproduces the error CDFs of Fig. 14 over repeated randomised
// identifications.
func Fig14(w io.Writer, cfg WorldConfig, runs int) error {
	errs, err := CollectFig14(cfg, runs)
	if err != nil {
		return err
	}
	section(w, "Fig. 14 — CDF of identification errors")
	fmt.Fprintf(w, "approaches identified: %d (plus %d with insufficient data) over %d runs\n",
		len(errs.Cycle), errs.Failures, runs)
	printCDF := func(name string, xs []float64) {
		e := stats.NewECDF(xs)
		fmt.Fprintf(w, "%-14s", name)
		for _, x := range []float64{1, 2, 4, 6, 8, 10, 15, 20} {
			fmt.Fprintf(w, "  <=%2.0fs:%5.1f%%", x, 100*e.At(x))
		}
		fmt.Fprintln(w)
	}
	printCDF("cycle length", errs.Cycle)
	printCDF("red duration", errs.Red)
	printCDF("change time", errs.Change)
	grossCycle := 0
	for _, x := range errs.Cycle {
		if x > 10 {
			grossCycle++
		}
	}
	fmt.Fprintf(w, "cycle errors > 10 s: %.1f%% (paper: ~7%% — the estimator is bimodal: exact or grossly off)\n",
		100*float64(grossCycle)/float64(len(errs.Cycle)))
	sort.Float64s(errs.Red)
	return nil
}
