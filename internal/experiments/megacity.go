package experiments

import (
	"fmt"
	"math"

	"taxilight/internal/geo"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

// MegacityConfig parameterises BuildMegacity: a city built from
// independently simulated districts. One monolithic simulation of 10k+
// lights is infeasible (per-trip shortest paths over a 20k-node graph,
// billions of vehicle steps a day), but the paper's city behaves like
// districts anyway — taxis circulate locally; estimation is per
// intersection. So each district gets its own grid, fleet and trace
// generator, and the districts compose into one road network and one
// record stream with globally unique light IDs and plates.
type MegacityConfig struct {
	// Districts is the number of independent districts; each contributes
	// Rows×Cols signalised intersections.
	Districts int
	// Rows, Cols size each district's grid.
	Rows, Cols int
	// TaxisPerDistrict sizes each district's fleet.
	TaxisPerDistrict int
	// Seed derives every district's grid/sim/trace seeds; two megacities
	// with the same config are byte-identical.
	Seed int64
	// DynamicShare is the fraction of pre-programmed dynamic lights in
	// every district.
	DynamicShare float64
	// Diurnal enables the Shenzhen activity profile.
	Diurnal bool
}

// DefaultMegacityConfig is the 10k-light soak shape: 25 districts of
// 20×20 lights with 1120 taxis each — 10,000 lights and 28,000 taxis,
// the paper's deployment scale.
func DefaultMegacityConfig() MegacityConfig {
	return MegacityConfig{
		Districts:        25,
		Rows:             20,
		Cols:             20,
		TaxisPerDistrict: 1120,
		Seed:             1,
		Diurnal:          true,
	}
}

// Validate checks the configuration.
func (c MegacityConfig) Validate() error {
	if c.Districts <= 0 || c.Rows <= 0 || c.Cols <= 0 || c.TaxisPerDistrict <= 0 {
		return fmt.Errorf("experiments: non-positive megacity dimension %+v", c)
	}
	return nil
}

// District is one independently simulated slice of the megacity. Its
// network lives in the city's planar frame (positions already offset,
// light IDs already global) but keeps district-local node IDs; matched
// keys are remapped to the merged network's node range by NodeOffset.
type District struct {
	Index int
	// Net is the district's standalone network, translated into the city
	// frame and finalized.
	Net     *roadnet.Network
	Sim     *trafficsim.Simulator
	Gen     *trace.Generator
	Matcher *mapmatch.Matcher
	// NodeOffset maps district-local node IDs onto the merged network:
	// local node i is city node NodeOffset+i.
	NodeOffset roadnet.NodeID
	// PlatePrefix namespaces this district's taxi plates so 25 fleets of
	// "B10000..." don't collide in one city-wide stream.
	PlatePrefix string
}

// Megacity is the composed city: the merged network for serving and
// serialization plus the per-district generators that feed it.
type Megacity struct {
	Cfg MegacityConfig
	// Net is the merged city network (every district appended at a
	// disjoint planar offset), finalized.
	Net       *roadnet.Network
	Districts []*District
	// Lights is the total signalised-intersection count.
	Lights int
}

// BuildMegacity constructs the district-sharded city deterministically.
func BuildMegacity(cfg MegacityConfig) (*Megacity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = cfg.Rows, cfg.Cols
	gcfg.DynamicShare = cfg.DynamicShare
	gcfg.CycleMin, gcfg.CycleMax = 80, 140

	// Districts tile a square super-grid, separated by well over the
	// map-matching radius so a record can only ever match its own
	// district's roads.
	extent := float64(maxInt(cfg.Rows, cfg.Cols)) * gcfg.Spacing
	sep := extent + 10_000
	superDim := int(math.Ceil(math.Sqrt(float64(cfg.Districts))))

	lightsPer := cfg.Rows * cfg.Cols
	city := roadnet.NewNetwork(gcfg.Origin)
	m := &Megacity{Cfg: cfg, Net: city}
	var nodesPer int
	for i := 0; i < cfg.Districts; i++ {
		gcfg.Seed = cfg.Seed + int64(i)*1_000_003
		grid, err := roadnet.GenerateGrid(gcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: district %d grid: %w", i, err)
		}
		if i == 0 {
			nodesPer = grid.NumNodes()
		} else if grid.NumNodes() != nodesPer {
			return nil, fmt.Errorf("experiments: district %d has %d nodes, first had %d", i, grid.NumNodes(), nodesPer)
		}
		offset := geo.XY{
			X: float64(i%superDim) * sep,
			Y: float64(i/superDim) * sep,
		}
		// The standalone district net lives in the city frame already:
		// node IDs local, light IDs global, positions offset. The same
		// translated copy is appended into the merged city net, so the
		// two agree on every coordinate and schedule.
		dnet := roadnet.NewNetwork(gcfg.Origin)
		if _, err := roadnet.AppendNetwork(dnet, grid, offset, i*lightsPer); err != nil {
			return nil, fmt.Errorf("experiments: district %d translate: %w", i, err)
		}
		if err := dnet.Finalize(); err != nil {
			return nil, fmt.Errorf("experiments: district %d finalize: %w", i, err)
		}
		base, err := roadnet.AppendNetwork(city, dnet, geo.XY{}, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: district %d append: %w", i, err)
		}

		scfg := trafficsim.DefaultConfig(dnet)
		scfg.NumTaxis = cfg.TaxisPerDistrict
		scfg.Seed = gcfg.Seed
		sim, err := trafficsim.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: district %d sim: %w", i, err)
		}
		tcfg := trace.DefaultGenConfig(sim, dnet.Projection())
		tcfg.Seed = gcfg.Seed
		tcfg.Epoch = Epoch
		if !cfg.Diurnal {
			tcfg.Activity = nil
		}
		gen, err := trace.NewGenerator(tcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: district %d generator: %w", i, err)
		}
		matcher, err := mapmatch.New(dnet, Epoch, mapmatch.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: district %d matcher: %w", i, err)
		}
		m.Districts = append(m.Districts, &District{
			Index:       i,
			Net:         dnet,
			Sim:         sim,
			Gen:         gen,
			Matcher:     matcher,
			NodeOffset:  base,
			PlatePrefix: fmt.Sprintf("d%02d", i),
		})
		m.Lights += lightsPer
	}
	if err := city.Finalize(); err != nil {
		return nil, fmt.Errorf("experiments: merged city: %w", err)
	}
	return m, nil
}

// StreamRecords advances the district's simulation to sim-time until,
// delivering each raw record (plate already namespaced) to fn — the
// partitioned megacity feed one tracegen output file carries.
func (d *District) StreamRecords(until float64, fn func(trace.Record) error) error {
	return d.Gen.Stream(until, func(r trace.Record) error {
		r.Plate = d.PlatePrefix + r.Plate
		return fn(r)
	})
}

// CollectMatched advances the district's simulation to sim-time until
// and returns the matched records with city-global keys and plates —
// the pre-matched form the soak dispatches straight into the serving
// layer. Call it in chunks (e.g. one estimation interval at a time) to
// keep peak memory at one chunk per district.
func (d *District) CollectMatched(until float64) ([]mapmatch.Matched, error) {
	var out []mapmatch.Matched
	err := d.Gen.Stream(until, func(r trace.Record) error {
		mt, ok := d.Matcher.Match(r)
		if !ok {
			return nil
		}
		mt.Plate = d.PlatePrefix + mt.Plate
		mt.Light += d.NodeOffset
		out = append(out, mt)
		return nil
	})
	return out, err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
