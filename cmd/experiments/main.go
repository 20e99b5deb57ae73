// Command experiments regenerates the paper's tables and figures from the
// synthetic substrate and prints the series the paper reports, alongside
// ground truth.
//
// Usage:
//
//	experiments -all
//	experiments -fig 2 -fig 14 -table 2
//	experiments -fig 14 -runs 30          # more repetitions for the CDFs
//	experiments -fig 12 -days 3           # the paper's 3-day monitoring
package main

import (
	"flag"
	"fmt"
	"os"

	"taxilight/internal/experiments"
	"taxilight/internal/experiments/routeab"
)

type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var figs, tables multiFlag
	all := flag.Bool("all", false, "run every experiment")
	runs := flag.Int("runs", 10, "randomised repetitions for Fig. 14")
	days := flag.Int("days", 1, "monitored days for Fig. 12 (paper: 3)")
	trips := flag.Int("trips", 40, "trips per distance class for Fig. 16, or A/B trips for route-ab")
	seed := flag.Int64("seed", 1, "base random seed")
	flag.Var(&figs, "fig", "figure to regenerate (1, 2, 6, 7, 9, 10, 11, 12, 13, 14, 14c, 16, e2e, route-ab, sweep); repeatable")
	flag.Var(&tables, "table", "table to regenerate (2); repeatable")
	flag.Parse()
	tripsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trips" {
			tripsSet = true
		}
	})

	if *all {
		figs = []string{"1", "2", "6", "7", "9", "10", "11", "12", "12s", "13", "14", "14c", "16", "e2e", "route-ab", "sweep", "corridor", "scaling"}
		tables = []string{"2"}
	}
	if len(figs) == 0 && len(tables) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	w := os.Stdout
	wcfg := experiments.DefaultWorldConfig()
	wcfg.Seed = *seed
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", what, err)
		os.Exit(1)
	}
	for _, tbl := range tables {
		switch tbl {
		case "2":
			if err := experiments.Table2(w, wcfg); err != nil {
				fail("table 2", err)
			}
		default:
			fail("table "+tbl, fmt.Errorf("unknown table"))
		}
	}
	for _, fig := range figs {
		var err error
		switch fig {
		case "1":
			err = experiments.Fig1(w, wcfg)
		case "2":
			cfg := wcfg
			cfg.Horizon = 86400
			cfg.Taxis = 150
			err = experiments.Fig2(w, cfg)
		case "6":
			err = experiments.Fig6(w, *seed)
		case "7":
			err = experiments.Fig7(w, *seed)
		case "9":
			err = experiments.Fig9(w, *seed)
		case "10":
			err = experiments.Fig10(w, *seed)
		case "11":
			err = experiments.Fig11(w, *seed)
		case "12":
			cfg := experiments.DefaultFig12Config()
			cfg.Days = *days
			cfg.Seed = *seed
			err = experiments.Fig12(w, cfg)
		case "12s":
			cfg := experiments.DefaultFig12Config()
			cfg.Days = *days
			cfg.Seed = *seed
			err = experiments.Fig12Spectrogram(w, cfg)
		case "13":
			err = experiments.Fig13(w, wcfg)
		case "14":
			err = experiments.Fig14(w, wcfg, *runs)
		case "14c":
			err = experiments.Fig14Compare(w, wcfg, *runs)
		case "sweep":
			err = experiments.SweepDensity(w, *seed, *runs)
		case "corridor":
			err = experiments.Corridor(w, *seed)
		case "scaling":
			cfg := wcfg
			cfg.Rows, cfg.Cols = 6, 6
			cfg.Taxis = 500
			err = experiments.Scaling(w, cfg, 3)
		case "16":
			err = experiments.Fig16(w, 8, 8, *trips, *seed)
		case "e2e":
			cfg := experiments.DefaultEndToEndConfig()
			cfg.Seed = *seed
			err = experiments.EndToEnd(w, cfg)
		case "route-ab":
			cfg := routeab.DefaultConfig()
			cfg.Seed = *seed
			cfg.World.Seed = *seed
			if tripsSet {
				cfg.Trips = *trips
			}
			err = routeab.Report(w, cfg)
		default:
			err = fmt.Errorf("unknown figure")
		}
		if err != nil {
			fail("fig "+fig, err)
		}
	}
}
