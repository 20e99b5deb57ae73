// OSM city: the full pipeline on a road network defined as OpenStreetMap
// XML — the map source the paper actually uses. The example generates a
// small signalised district as an OSM extract (as if exported from the
// OSM API), imports it, simulates a taxi fleet on it, and identifies the
// lights from the resulting trace.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"strings"

	"taxilight/internal/core"
	"taxilight/internal/experiments"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// buildOSMExtract renders a rows x cols signalised grid as OSM XML.
func buildOSMExtract(rows, cols int) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n<osm version=\"0.6\">\n")
	id := func(r, c int) int { return r*cols + c + 1 }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			lat := 22.5400 + float64(r)*0.0072 // ~800 m blocks
			lon := 114.0500 + float64(c)*0.0078
			fmt.Fprintf(&b, `  <node id="%d" lat="%.4f" lon="%.4f"><tag k="highway" v="traffic_signals"/></node>`+"\n",
				id(r, c), lat, lon)
		}
	}
	wayID := 1000
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&b, `  <way id="%d">`, wayID)
		for c := 0; c < cols; c++ {
			fmt.Fprintf(&b, `<nd ref="%d"/>`, id(r, c))
		}
		fmt.Fprintf(&b, `<tag k="highway" v="primary"/><tag k="name" v="EW%d"/><tag k="maxspeed" v="50"/></way>`+"\n", r)
		wayID++
	}
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&b, `  <way id="%d">`, wayID)
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&b, `<nd ref="%d"/>`, id(r, c))
		}
		fmt.Fprintf(&b, `<tag k="highway" v="secondary"/><tag k="name" v="NS%d"/><tag k="maxspeed" v="50"/></way>`+"\n", c)
		wayID++
	}
	b.WriteString("</osm>\n")
	return b.String()
}

func main() {
	extract := buildOSMExtract(3, 3)
	fmt.Printf("generated OSM extract: %d bytes\n", len(extract))

	cfg := roadnet.DefaultOSMConfig()
	net, err := roadnet.ImportOSM(strings.NewReader(extract), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported: %d nodes, %d segments, %d signalised intersections\n",
		net.NumNodes(), net.NumSegments(), len(net.SignalisedNodes()))

	world, err := experiments.NewWorld(net, experiments.WorldConfig{Taxis: 250, Seed: 1, Horizon: 3600})
	if err != nil {
		log.Fatal(err)
	}
	world.Collect()
	fmt.Printf("simulated %d records over one hour\n", len(world.Records))

	var stats mapmatch.MatchStats
	for _, r := range world.Records {
		world.Matcher.MatchWithStats(r, &stats)
	}
	fmt.Printf("map matching: %.1f%% matched (%d fallback, %d no-segment)\n",
		100*stats.MatchRate(), stats.FallbackMatched, stats.RejectedNoSegment)

	results, err := core.RunPipeline(world.Part, 0, 3600, core.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	ok, total := 0, 0
	var keys []mapmatch.Key
	for k := range results {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Light != keys[j].Light {
			return keys[i].Light < keys[j].Light
		}
		return keys[i].Approach < keys[j].Approach
	})
	fmt.Printf("\n%-6s %-9s %-20s %s\n", "light", "approach", "cycle est/truth", "quality")
	for _, k := range keys {
		r := results[k]
		if r.Err != nil {
			continue
		}
		truth := net.Node(k.Light).Light.ScheduleFor(k.Approach, 1800)
		total++
		if math.Abs(r.Cycle-truth.Cycle) <= 5 {
			ok++
		}
		fmt.Printf("%-6d %-9s %7.1f / %-7.0f   %6.3f\n", k.Light, k.Approach, r.Cycle, truth.Cycle, r.Quality)
	}
	fmt.Printf("\ncycle identified within 5 s on %d/%d approaches of the OSM-defined city\n", ok, total)
}
