package roadnet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

// The network file format is line-delimited JSON: one header line, then
// one line per node and per segment. It captures everything needed to
// re-run map matching and to score identification against ground truth
// (light controllers included), so a trace file plus a network file is a
// complete, self-describing experiment input.

type netHeader struct {
	Format   string  `json:"format"`
	Version  int     `json:"version"`
	Lat      float64 `json:"lat,omitempty"`
	Lon      float64 `json:"lon,omitempty"`
	Nodes    int     `json:"nodes"`
	Segments int     `json:"segments"`
}

type nodeJSON struct {
	Kind  string     `json:"kind"` // "node"
	ID    int        `json:"id"`
	X     float64    `json:"x"`
	Y     float64    `json:"y"`
	Light *lightJSON `json:"light,omitempty"`
}

type lightJSON struct {
	ID int `json:"id"`
	// Kind is "static" or "dynamic".
	Kind   string         `json:"kind"`
	Static *scheduleJSON  `json:"static,omitempty"`
	Plan   []planItemJSON `json:"plan,omitempty"`
}

type scheduleJSON struct {
	Cycle  float64 `json:"cycle"`
	Red    float64 `json:"red"`
	Offset float64 `json:"offset"`
}

type planItemJSON struct {
	DaySecond float64      `json:"daySecond"`
	S         scheduleJSON `json:"s"`
}

type segJSON struct {
	Kind  string  `json:"kind"` // "segment"
	From  int     `json:"from"`
	To    int     `json:"to"`
	Name  string  `json:"name"`
	Speed float64 `json:"speed"`
}

const netFormatName = "taxilight-network"

// WriteNetwork serialises a finalized network to w. Static and
// pre-programmed dynamic controllers round-trip exactly; any other
// controller type is flattened to the static schedule in force at time 0,
// with an error-free best effort.
func WriteNetwork(w io.Writer, net *Network) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(netHeader{
		Format: netFormatName, Version: 1,
		Lat: net.Projection().Origin.Lat, Lon: net.Projection().Origin.Lon,
		Nodes: net.NumNodes(), Segments: net.NumSegments(),
	}); err != nil {
		return err
	}
	for _, nd := range net.Nodes() {
		nj := nodeJSON{Kind: "node", ID: int(nd.ID), X: nd.Pos.X, Y: nd.Pos.Y}
		if nd.Light != nil {
			lj := &lightJSON{ID: nd.Light.ID}
			switch ctrl := nd.Light.Ctrl.(type) {
			case lights.Static:
				lj.Kind = "static"
				lj.Static = scheduleToJSON(ctrl.S)
			case *lights.Dynamic:
				lj.Kind = "dynamic"
				for _, e := range ctrl.Plan {
					lj.Plan = append(lj.Plan, planItemJSON{DaySecond: e.DaySecond, S: *scheduleToJSON(e.S)})
				}
			default:
				lj.Kind = "static"
				lj.Static = scheduleToJSON(nd.Light.Ctrl.ScheduleAt(0))
			}
			nj.Light = lj
		}
		if err := enc.Encode(nj); err != nil {
			return err
		}
	}
	for _, s := range net.Segments() {
		if err := enc.Encode(segJSON{
			Kind: "segment", From: int(s.From), To: int(s.To),
			Name: s.Name, Speed: s.SpeedLimit,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func scheduleToJSON(s lights.Schedule) *scheduleJSON {
	return &scheduleJSON{Cycle: s.Cycle, Red: s.Red, Offset: s.Offset}
}

func scheduleFromJSON(s scheduleJSON) lights.Schedule {
	return lights.Schedule{Cycle: s.Cycle, Red: s.Red, Offset: s.Offset}
}

// LoadNetwork resolves the road network a tool serves or identifies on:
// the network file netFile (written by WriteNetwork) when it is set, else
// the OSM extract osmFile, else the DefaultGridConfig grid of rows x cols
// drawn from seed.
func LoadNetwork(netFile, osmFile string, rows, cols int, seed int64) (*Network, error) {
	read := func(path string, parse func(io.Reader) (*Network, error)) (*Network, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		net, err := parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return net, err
	}
	switch {
	case netFile != "":
		return read(netFile, ReadNetwork)
	case osmFile != "":
		return read(osmFile, func(r io.Reader) (*Network, error) { return ImportOSM(r, DefaultOSMConfig()) })
	}
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = rows, cols, seed
	return GenerateGrid(cfg)
}

// ReadNetwork deserialises a network written by WriteNetwork and
// finalizes it. Node IDs must be dense and in file order (as WriteNetwork
// produces them).
func ReadNetwork(r io.Reader) (*Network, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr netHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("roadnet: network header: %w", err)
	}
	if hdr.Format != netFormatName {
		return nil, fmt.Errorf("roadnet: not a network file (format %q)", hdr.Format)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("roadnet: unsupported network version %d", hdr.Version)
	}
	net := NewNetwork(geo.Point{Lat: hdr.Lat, Lon: hdr.Lon})
	nodesSeen := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("roadnet: network line: %w", err)
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return nil, fmt.Errorf("roadnet: network line: %w", err)
		}
		switch kind.Kind {
		case "node":
			var nj nodeJSON
			if err := json.Unmarshal(raw, &nj); err != nil {
				return nil, err
			}
			if nj.ID != nodesSeen {
				return nil, fmt.Errorf("roadnet: node %d out of order (want %d)", nj.ID, nodesSeen)
			}
			var light *lights.Intersection
			if nj.Light != nil {
				ctrl, err := controllerFromJSON(nj.Light)
				if err != nil {
					return nil, err
				}
				light = &lights.Intersection{ID: nj.Light.ID, Ctrl: ctrl}
			}
			net.AddNode(geo.XY{X: nj.X, Y: nj.Y}, light)
			nodesSeen++
		case "segment":
			var sj segJSON
			if err := json.Unmarshal(raw, &sj); err != nil {
				return nil, err
			}
			if _, err := net.AddSegment(NodeID(sj.From), NodeID(sj.To), sj.Name, sj.Speed); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("roadnet: unknown record kind %q", kind.Kind)
		}
	}
	if nodesSeen != hdr.Nodes || net.NumSegments() != hdr.Segments {
		return nil, fmt.Errorf("roadnet: header promises %d nodes/%d segments, file has %d/%d",
			hdr.Nodes, hdr.Segments, nodesSeen, net.NumSegments())
	}
	if err := net.Finalize(); err != nil {
		return nil, err
	}
	return net, nil
}

func controllerFromJSON(lj *lightJSON) (lights.Controller, error) {
	switch lj.Kind {
	case "static":
		if lj.Static == nil {
			return nil, fmt.Errorf("roadnet: static light %d without schedule", lj.ID)
		}
		s := scheduleFromJSON(*lj.Static)
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("roadnet: light %d: %w", lj.ID, err)
		}
		return lights.Static{S: s}, nil
	case "dynamic":
		plan := make([]lights.PlanEntry, len(lj.Plan))
		for i, e := range lj.Plan {
			plan[i] = lights.PlanEntry{DaySecond: e.DaySecond, S: scheduleFromJSON(e.S)}
		}
		return lights.NewDynamic(plan)
	default:
		return nil, fmt.Errorf("roadnet: unknown light kind %q", lj.Kind)
	}
}
