// Command lightid runs the full traffic-light scheduling identification
// pipeline over a Table-I CSV trace: map matching, partitioning, cycle
// length, red duration and signal change identification for every
// observed signal approach.
//
// The network the trace was generated against is reconstructed from the
// same generator parameters (synthetic traces carry no map, exactly like
// the real system needs OpenStreetMap alongside the Shenzhen feed).
//
// Usage:
//
//	lightid -trace trace.csv -rows 4 -cols 4 -seed 1 -window 3600
//	lightid -trace trace.csv -truth truth.csv        # also score vs truth
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "input trace file (Table-I CSV)")
	rows := flag.Int("rows", 4, "grid rows of the generating network")
	cols := flag.Int("cols", 4, "grid columns of the generating network")
	seed := flag.Int64("seed", 1, "seed of the generating network")
	window := flag.Float64("window", 3600, "analysis window in seconds from the first record")
	truthFile := flag.String("truth", "", "optional ground-truth schedule file (from tracegen) to score against")
	osmFile := flag.String("osm", "", "OpenStreetMap XML extract to use as the road network instead of the synthetic grid")
	netFile := flag.String("network", "", "network file written by tracegen -network (preferred over -rows/-cols/-seed)")
	lenient := flag.Bool("lenient", false, "skip malformed trace lines instead of aborting; counts them per error class")
	maxBadFrac := flag.Float64("max-bad-frac", 0.05, "with -lenient, abort once this fraction of lines is malformed")
	flag.Parse()
	if *traceFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *maxBadFrac < 0 || *maxBadFrac > 1 {
		fatal(fmt.Errorf("-max-bad-frac must be within [0, 1], got %g", *maxBadFrac))
	}
	sc, closer, err := trace.OpenFile(*traceFile)
	if err != nil {
		fatal(err)
	}
	if *lenient {
		lcfg := trace.DefaultLenientConfig()
		lcfg.MaxBadFraction = *maxBadFrac
		sc.SetLenient(lcfg)
	}
	var records []trace.Record
	for sc.Scan() {
		records = append(records, sc.Record())
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if err := closer.Close(); err != nil {
		fatal(err)
	}
	if st := sc.Stats(); *lenient && st.Skipped > 0 {
		fmt.Printf("loaded %d records (skipped %d of %d malformed lines: %v)\n",
			len(records), st.Skipped, st.Lines, st.ByClass)
	} else {
		fmt.Printf("loaded %d records\n", len(records))
	}

	net, err := roadnet.LoadNetwork(*netFile, *osmFile, *rows, *cols, *seed)
	if err != nil {
		fatal(err)
	}
	switch {
	case *netFile != "":
		fmt.Printf("loaded network: %d nodes, %d segments\n", net.NumNodes(), net.NumSegments())
	case *osmFile != "":
		fmt.Printf("imported OSM network: %d nodes, %d segments, %d signals\n",
			net.NumNodes(), net.NumSegments(), len(net.SignalisedNodes()))
	}
	matcher, err := mapmatch.New(net, trace.Epoch, mapmatch.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	part := matcher.PartitionRecords(records)
	fmt.Printf("matched into %d signal-approach partitions\n", len(part))

	results, err := core.RunPipeline(part, 0, *window, core.DefaultPipelineConfig())
	if err != nil {
		fatal(err)
	}
	keys := make([]mapmatch.Key, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Light != keys[j].Light {
			return keys[i].Light < keys[j].Light
		}
		return keys[i].Approach < keys[j].Approach
	})
	truth := map[mapmatch.Key]lights.Schedule{}
	if *truthFile != "" {
		truth, err = readTruth(*truthFile)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%-6s %-9s %-8s %-8s %-8s %-10s %-10s %-8s %s\n",
		"light", "approach", "cycle", "red", "green", "g->r", "r->g", "records", "score")
	var cycErrs, redErrs []float64
	for _, k := range keys {
		r := results[k]
		if r.Err != nil {
			fmt.Printf("%-6d %-9s (failed: %v)\n", k.Light, k.Approach, r.Err)
			continue
		}
		score := ""
		if tr, ok := truth[k]; ok {
			ce := math.Abs(r.Cycle - tr.Cycle)
			re := math.Abs(r.Red - tr.Red)
			cycErrs = append(cycErrs, ce)
			redErrs = append(redErrs, re)
			score = fmt.Sprintf("cycErr=%.1f redErr=%.1f", ce, re)
		}
		fmt.Printf("%-6d %-9s %7.1f %7.1f %7.1f %9.1f %9.1f %8d %s\n",
			k.Light, k.Approach, r.Cycle, r.Red, r.Green,
			r.GreenToRedPhase, r.RedToGreenPhase, r.Records, score)
	}
	if len(cycErrs) > 0 {
		fmt.Printf("scored %d approaches: median cycle error %.1f s, median red error %.1f s\n",
			len(cycErrs), medianOf(cycErrs), medianOf(redErrs))
	}
}

// readTruth parses the tracegen -truth output: light,approach,cycle,red,offset.
func readTruth(path string) (map[mapmatch.Key]lights.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[mapmatch.Key]lights.Schedule{}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "light,") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 5 {
			return nil, fmt.Errorf("truth line %d: %d fields", lineNo, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("truth line %d: %w", lineNo, err)
		}
		var app lights.Approach
		switch parts[1] {
		case "NS":
			app = lights.NorthSouth
		case "EW":
			app = lights.EastWest
		default:
			return nil, fmt.Errorf("truth line %d: approach %q", lineNo, parts[1])
		}
		cycle, err1 := strconv.ParseFloat(parts[2], 64)
		red, err2 := strconv.ParseFloat(parts[3], 64)
		offset, err3 := strconv.ParseFloat(parts[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("truth line %d: bad numbers", lineNo)
		}
		out[mapmatch.Key{Light: roadnet.NodeID(id), Approach: app}] = lights.Schedule{Cycle: cycle, Red: red, Offset: offset}
	}
	return out, sc.Err()
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightid:", err)
	os.Exit(1)
}
