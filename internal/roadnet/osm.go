package roadnet

import (
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

// OSMConfig controls ImportOSM. The paper uses OpenStreetMap as its
// digital map service; this importer turns an OSM XML extract into a
// Network the map matcher and pipeline can run against.
type OSMConfig struct {
	// DefaultSpeedMS is used when a way carries no parseable maxspeed.
	DefaultSpeedMS float64
	// Lights, when non-nil, supplies the controller for each signalised
	// node (OSM tells us *where* signals are, never their schedules —
	// that is the whole point of the paper). Nil assigns random static
	// schedules seeded by Seed.
	Lights func(osmNodeID int64) lights.Controller
	// Seed drives the default random schedules.
	Seed int64
	// SimplifyTolerance, when positive, drops way shape nodes that
	// deviate less than this many metres from the simplified geometry
	// (Douglas-Peucker). Junction nodes (shared between ways) and
	// signalised nodes are always kept. Real extracts carry a shape
	// point every few metres; simplification keeps the segment count and
	// the spatial index proportional to actual road geometry.
	SimplifyTolerance float64
	// Origin overrides the projection origin; zero uses the mean of the
	// imported node coordinates.
	Origin geo.Point
}

// osmHighways are the drivable road classes: the `highway=` tag values
// of the ways ImportOSM keeps.
var osmHighways = map[string]bool{
	"motorway": true, "trunk": true, "primary": true, "secondary": true,
	"tertiary": true, "unclassified": true, "residential": true,
	"motorway_link": true, "trunk_link": true, "primary_link": true,
	"secondary_link": true, "tertiary_link": true,
}

// DefaultOSMConfig returns an importer configuration with urban defaults.
func DefaultOSMConfig() OSMConfig {
	return OSMConfig{DefaultSpeedMS: 13.9, Seed: 1}
}

// osm XML shapes (only the parts we read).
type osmNodeXML struct {
	ID   int64       `xml:"id,attr"`
	Lat  float64     `xml:"lat,attr"`
	Lon  float64     `xml:"lon,attr"`
	Tags []osmTagXML `xml:"tag"`
}

type osmTagXML struct {
	K string `xml:"k,attr"`
	V string `xml:"v,attr"`
}

type osmWayXML struct {
	ID   int64       `xml:"id,attr"`
	Nds  []osmNdXML  `xml:"nd"`
	Tags []osmTagXML `xml:"tag"`
}

type osmNdXML struct {
	Ref int64 `xml:"ref,attr"`
}

func tagValue(tags []osmTagXML, k string) (string, bool) {
	for _, t := range tags {
		if t.K == k {
			return t.V, true
		}
	}
	return "", false
}

// parseMaxspeed converts an OSM maxspeed value ("50", "50 km/h",
// "30 mph") to m/s; ok is false for unparseable values.
func parseMaxspeed(v string) (float64, bool) {
	v = strings.TrimSpace(strings.ToLower(v))
	mph := false
	if strings.HasSuffix(v, "mph") {
		mph = true
		v = strings.TrimSpace(strings.TrimSuffix(v, "mph"))
	}
	v = strings.TrimSpace(strings.TrimSuffix(v, "km/h"))
	n, err := strconv.ParseFloat(v, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	if mph {
		return n * 0.44704, true
	}
	return n / 3.6, true
}

// ImportOSM parses an OSM XML extract and builds a finalized Network
// containing the drivable ways. Nodes tagged highway=traffic_signals
// become signalised intersections. Ways default to two-way; oneway=yes
// (or -1 for reversed) is honoured.
func ImportOSM(r io.Reader, cfg OSMConfig) (*Network, error) {
	if cfg.DefaultSpeedMS <= 0 {
		return nil, fmt.Errorf("roadnet: non-positive default speed %v", cfg.DefaultSpeedMS)
	}

	type nodeInfo struct {
		pt     geo.Point
		signal bool
	}
	nodes := make(map[int64]nodeInfo)
	var ways []osmWayXML

	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("roadnet: osm parse: %w", err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "node":
			var n osmNodeXML
			if err := dec.DecodeElement(&n, &se); err != nil {
				return nil, fmt.Errorf("roadnet: osm node: %w", err)
			}
			hv, _ := tagValue(n.Tags, "highway")
			nodes[n.ID] = nodeInfo{
				pt:     geo.Point{Lat: n.Lat, Lon: n.Lon},
				signal: hv == "traffic_signals",
			}
		case "way":
			var w osmWayXML
			if err := dec.DecodeElement(&w, &se); err != nil {
				return nil, fmt.Errorf("roadnet: osm way: %w", err)
			}
			if hv, ok := tagValue(w.Tags, "highway"); ok && osmHighways[hv] {
				ways = append(ways, w)
			}
		}
	}
	if len(ways) == 0 {
		return nil, fmt.Errorf("roadnet: no drivable ways in extract")
	}

	// Projection origin: configured or centroid of referenced nodes.
	origin := cfg.Origin
	if origin.IsZero() {
		var latSum, lonSum float64
		n := 0
		for _, w := range ways {
			for _, nd := range w.Nds {
				if info, ok := nodes[nd.Ref]; ok {
					latSum += info.pt.Lat
					lonSum += info.pt.Lon
					n++
				}
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("roadnet: ways reference no known nodes")
		}
		origin = geo.Point{Lat: latSum / float64(n), Lon: lonSum / float64(n)}
	}

	// Node usage counts decide which shape nodes are junctions.
	usage := make(map[int64]int)
	for _, w := range ways {
		for _, nd := range w.Nds {
			usage[nd.Ref]++
		}
	}

	net := NewNetwork(origin)
	rng := rand.New(rand.NewSource(cfg.Seed))
	defaultCtrl := func(osmID int64) lights.Controller {
		if cfg.Lights != nil {
			return cfg.Lights(osmID)
		}
		cycle := float64(60 + rng.Intn(100))
		red := float64(int(cycle * (0.35 + rng.Float64()*0.3)))
		return lights.Static{S: lights.Schedule{Cycle: cycle, Red: red, Offset: float64(rng.Intn(int(cycle)))}}
	}

	ids := make(map[int64]NodeID)
	lightCount := 0
	ensureNode := func(osmID int64) (NodeID, error) {
		if id, ok := ids[osmID]; ok {
			return id, nil
		}
		info, ok := nodes[osmID]
		if !ok {
			return 0, fmt.Errorf("roadnet: way references missing node %d", osmID)
		}
		var light *lights.Intersection
		if info.signal {
			light = &lights.Intersection{ID: lightCount, Ctrl: defaultCtrl(osmID)}
			lightCount++
		}
		id := net.AddNode(net.Projection().Forward(info.pt), light)
		ids[osmID] = id
		return id, nil
	}

	proj := net.Projection()
	// simplifyWay drops droppable shape nodes per Douglas-Peucker.
	simplifyWay := func(nds []osmNdXML) []osmNdXML {
		if cfg.SimplifyTolerance <= 0 || len(nds) <= 2 {
			return nds
		}
		keepIdx := map[int]bool{0: true, len(nds) - 1: true}
		// Anchors: junctions and signals are never dropped.
		anchors := []int{0}
		for i := 1; i < len(nds)-1; i++ {
			info, ok := nodes[nds[i].Ref]
			if !ok {
				continue
			}
			if usage[nds[i].Ref] > 1 || info.signal {
				keepIdx[i] = true
				anchors = append(anchors, i)
			}
		}
		anchors = append(anchors, len(nds)-1)
		// Simplify each run between consecutive anchors independently.
		for a := 1; a < len(anchors); a++ {
			lo, hi := anchors[a-1], anchors[a]
			if hi-lo < 2 {
				continue
			}
			var line geo.Polyline
			for i := lo; i <= hi; i++ {
				info, ok := nodes[nds[i].Ref]
				if !ok {
					return nds // missing ref: let segment building report it
				}
				line = append(line, proj.Forward(info.pt))
			}
			kept := line.Simplify(cfg.SimplifyTolerance)
			j := 0
			for i := lo; i <= hi; i++ {
				if j < len(kept) && line[i-lo] == kept[j] {
					keepIdx[i] = true
					j++
				}
			}
		}
		out := make([]osmNdXML, 0, len(nds))
		for i, nd := range nds {
			if keepIdx[i] {
				out = append(out, nd)
			}
		}
		return out
	}

	segs := 0
	for _, w := range ways {
		w.Nds = simplifyWay(w.Nds)
		name, _ := tagValue(w.Tags, "name")
		if name == "" {
			name = fmt.Sprintf("way/%d", w.ID)
		}
		speed := cfg.DefaultSpeedMS
		if ms, ok := tagValue(w.Tags, "maxspeed"); ok {
			if v, ok := parseMaxspeed(ms); ok {
				speed = v
			}
		}
		oneway, _ := tagValue(w.Tags, "oneway")
		forward, backward := true, true
		switch oneway {
		case "yes", "1", "true":
			backward = false
		case "-1": // drivable only against node order
			forward = false
		}
		for i := 0; i+1 < len(w.Nds); i++ {
			a, err := ensureNode(w.Nds[i].Ref)
			if err != nil {
				return nil, err
			}
			b, err := ensureNode(w.Nds[i+1].Ref)
			if err != nil {
				return nil, err
			}
			if a == b {
				continue // degenerate duplicate node refs
			}
			if forward {
				if _, err := net.AddSegment(a, b, name, speed); err != nil {
					return nil, err
				}
				segs++
			}
			if backward {
				if _, err := net.AddSegment(b, a, name, speed); err != nil {
					return nil, err
				}
				segs++
			}
		}
	}
	if segs == 0 {
		return nil, fmt.Errorf("roadnet: extract produced no segments")
	}
	if err := net.Finalize(); err != nil {
		return nil, err
	}
	return net, nil
}
