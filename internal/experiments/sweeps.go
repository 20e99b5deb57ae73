package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
	"taxilight/internal/stats"
)

// CollectFig14With is CollectFig14 under an explicit pipeline
// configuration — the hook the mode-comparison and density sweeps use.
// With paper set, every identified approach's red and change are
// re-derived the paper's way (paperRedAndChange). Run r builds its world
// at seed cfg.Seed + r, and each run's errors are appended in key order
// (light, then approach).
func CollectFig14With(cfg WorldConfig, pcfg core.PipelineConfig, runs int, paper bool) (Fig14Errors, error) {
	var out Fig14Errors
	base := cfg.Seed
	for r := 0; r < runs; r++ {
		cfg.Seed = base + int64(r)
		world, err := BuildWorld(cfg)
		if err != nil {
			return out, err
		}
		results, err := core.RunPipeline(world.Part, 0, world.Horizon, pcfg)
		if err != nil {
			return out, err
		}
		var idx *core.StopIndex
		if paper {
			if idx, err = core.BuildStopIndex(world.Part, pcfg.Stops); err != nil {
				return out, err
			}
		}
		keys := make([]mapmatch.Key, 0, len(results))
		for key := range results {
			keys = append(keys, key)
		}
		slices.SortFunc(keys, func(a, b mapmatch.Key) int {
			return cmp.Or(cmp.Compare(a.Light, b.Light), cmp.Compare(a.Approach, b.Approach))
		})
		for _, key := range keys {
			res := results[key]
			if paper && res.Err == nil {
				res = paperRedAndChange(world, idx, key, res, pcfg.MaxSpeedDist)
			}
			if res.Err != nil {
				out.Failures++
				continue
			}
			truth := world.Net.Node(key.Light).Light.ScheduleFor(key.Approach, world.Horizon/2)
			out.Cycle = append(out.Cycle, math.Abs(res.Cycle-truth.Cycle))
			out.Red = append(out.Red, math.Abs(res.Red-truth.Red))
			truePhase := math.Mod(truth.Offset, truth.Cycle)
			out.Change = append(out.Change, core.PhaseError(res.GreenToRedPhase, truePhase, truth.Cycle))
		}
	}
	return out, nil
}

// PaperModePipelineConfig is the pipeline of the paper's procedure: plain
// DFT argmax (Eq. 2) with no sub-bin refinement. Its red and change are
// the paper's too once paperRedAndChange re-derives them.
func PaperModePipelineConfig() core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.Cycle.Candidates = 1
	return cfg
}

// paperRedAndChange replaces an identified result's red with the border
// interval over its key's stops (Fig. 9), and its change with the
// sliding window of that red over the fold of its key's in-window,
// non-dwell speed samples (Figs. 10-11).
func paperRedAndChange(w *World, idx *core.StopIndex, key mapmatch.Key, res core.Result, maxDist float64) core.Result {
	red, err := borderIntervalRed(idx.Stops(key), res.Cycle)
	if err != nil {
		res.Err = err
		return res
	}
	var win []dsp.Sample
	for _, s := range core.SpeedSamplesNear(idx.FilterDwellRecords(w.Part[key]), maxDist) {
		if s.T >= 0 && s.T <= w.Horizon {
			win = append(win, s)
		}
	}
	folded, err := core.Superpose(win, res.Cycle, 0)
	if err == nil {
		var ch core.ChangeEstimate
		ch, err = core.IdentifyChange(folded, res.Cycle, red)
		res.Red, res.Green = red, res.Cycle-red
		res.GreenToRedPhase, res.RedToGreenPhase = ch.GreenToRed, ch.RedToGreen
	}
	res.Err = err
	return res
}

// Fig14Compare prints the Fig. 14 error CDFs twice: once with the
// paper's unvarnished procedure and once with this repository's
// extensions, quantifying what the extensions buy at the system level.
func Fig14Compare(w io.Writer, cfg WorldConfig, runs int) error {
	section(w, "Fig. 14 (comparison) — paper procedure vs extended estimators")
	for _, paper := range []bool{true, false} {
		name, pcfg := "extended  ", core.DefaultPipelineConfig()
		if paper {
			name, pcfg = "paper mode", PaperModePipelineConfig()
		}
		errs, err := CollectFig14With(cfg, pcfg, runs, paper)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (%d approaches):\n", name, len(errs.Cycle))
		printErrCDF(w, "  cycle length", errs.Cycle)
		printErrCDF(w, "  red duration", errs.Red)
		printErrCDF(w, "  change time", errs.Change)
	}
	return nil
}

func printErrCDF(w io.Writer, name string, xs []float64) {
	if len(xs) == 0 {
		fmt.Fprintf(w, "%-16s (no data)\n", name)
		return
	}
	e := stats.NewECDF(xs)
	fmt.Fprintf(w, "%-16s", name)
	for _, x := range []float64{2, 6, 10, 20} {
		fmt.Fprintf(w, "  <=%2.0fs:%5.1f%%", x, 100*e.At(x))
	}
	med, _ := stats.Median(xs)
	fmt.Fprintf(w, "  median %.1f s\n", med)
}

// SweepDensity measures identification accuracy as a function of fleet
// size — the paper's unbalanced-data motivation made quantitative: the
// sparse roads of Table II are the low end of this curve. Every point
// runs the Eq. 3 enhancement wherever the perpendicular has samples; the
// enhancement's own contribution at controlled sparsity is isolated by
// the Fig. 7 experiment. Run r of every point is seeded seed + r.
func SweepDensity(w io.Writer, seed int64, runs int) error {
	section(w, "Density sweep — identification accuracy vs fleet size")
	fmt.Fprintf(w, "%-8s %-12s %-14s %-16s %-16s %s\n",
		"taxis", "approaches", "cycle<=5s", "red median (s)", "change median (s)", "failed")
	for _, taxis := range []int{40, 80, 160, 320} {
		wcfg := DefaultWorldConfig()
		wcfg.Rows, wcfg.Cols = 3, 3
		wcfg.Taxis = taxis
		wcfg.Horizon = 3600
		wcfg.Seed = seed
		errs, err := CollectFig14With(wcfg, core.DefaultPipelineConfig(), runs, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %-12d %-14s %-16s %-16s %d\n",
			taxis, len(errs.Cycle)+errs.Failures,
			pctWithin(errs.Cycle, 5), medianStr(errs.Red), medianStr(errs.Change),
			errs.Failures)
	}
	return nil
}

func pctWithin(xs []float64, tol float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	n := 0
	for _, x := range xs {
		if x <= tol {
			n++
		}
	}
	return fmt.Sprintf("%.0f%% (n=%d)", 100*float64(n)/float64(len(xs)), len(xs))
}

func medianStr(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	m, _ := stats.Median(xs)
	return fmt.Sprintf("%.1f", m)
}
