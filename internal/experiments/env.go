// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic substrate: each Fig*/Table* function
// builds a deterministic simulated world, runs the relevant part of the
// pipeline, and prints the same rows/series the paper reports, alongside
// ground truth. cmd/experiments exposes them on the command line; the
// ablation benchmarks in this package's tests measure the estimator's
// alternatives.
//
// Every simulated world outside bench/ comes from one recipe in this
// file: WorldConfig.GridConfig maps a world onto roadnet's grid, and
// NewWorld puts simulator, generator and matcher on a network.
package experiments

import (
	"fmt"
	"io"

	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

// Epoch anchors simulated time zero (trace.Epoch, under the name the
// experiments and the bench read it by).
var Epoch = trace.Epoch

// World is one simulated city as the recipe assembles it: a simulator on
// Net, the Table I generator sampling it and the matcher that attributes
// its records to signal approaches. NewWorld collects nothing (stream
// through Gen.Stream and Matcher); Collect fills Records and Part.
type World struct {
	Net     *roadnet.Network
	Sim     *trafficsim.Simulator
	Gen     *trace.Generator
	Matcher *mapmatch.Matcher
	Records []trace.Record
	Part    mapmatch.Partition
	// Horizon is the simulated duration in seconds Collect runs to.
	Horizon float64
}

// WorldConfig parameterises the recipe. Seed drives the grid, the
// simulator and the generator alike.
type WorldConfig struct {
	Rows, Cols int
	Taxis      int
	Seed       int64
	Horizon    float64 // simulated seconds of trace
	// DynamicShare is the fraction of pre-programmed dynamic lights.
	DynamicShare float64
	// NodeWeights biases trip destinations (Table II imbalance); nil
	// means uniform.
	NodeWeights map[roadnet.NodeID]float64
	// Diurnal enables the Shenzhen activity profile (Fig. 2(a)); when
	// false every report is emitted.
	Diurnal bool
	// GridOverride and SimOverride, when non-nil, adjust the generated
	// grid / simulator configuration after the defaults are applied
	// (used by experiments that need denser or slower traffic).
	GridOverride func(*roadnet.GridConfig)
	SimOverride  func(*trafficsim.Config)
}

// DefaultWorldConfig is the medium-sized world most experiments use: a
// 4x4 signalised grid observed for one hour by 300 taxis.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Rows: 4, Cols: 4,
		Taxis:   300,
		Seed:    1,
		Horizon: 3600,
	}
}

// GridConfig is the grid cfg's world is built on: roadnet's defaults
// with cfg's size, seed and dynamic share, then GridOverride.
func (cfg WorldConfig) GridConfig() roadnet.GridConfig {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = cfg.Rows, cfg.Cols
	gcfg.Seed = cfg.Seed
	gcfg.DynamicShare = cfg.DynamicShare
	if cfg.GridOverride != nil {
		cfg.GridOverride(&gcfg)
	}
	return gcfg
}

// BuildWorld generates cfg's grid and collects its world to the horizon.
func BuildWorld(cfg WorldConfig) (*World, error) {
	net, err := roadnet.GenerateGrid(cfg.GridConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: grid: %w", err)
	}
	return buildWorldOn(net, cfg)
}

// buildWorldOn collects cfg's world on an existing network (used when a
// caller customises light controllers first).
func buildWorldOn(net *roadnet.Network, cfg WorldConfig) (*World, error) {
	w, err := NewWorld(net, cfg)
	if err != nil {
		return nil, err
	}
	w.Collect()
	return w, nil
}

// NewWorld puts the simulator, the generator (epoch Epoch, the diurnal
// profile only when cfg.Diurnal) and the default matcher on net. It
// simulates nothing yet.
func NewWorld(net *roadnet.Network, cfg WorldConfig) (*World, error) {
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = cfg.Taxis
	scfg.Seed = cfg.Seed
	scfg.NodeWeights = cfg.NodeWeights
	if cfg.SimOverride != nil {
		cfg.SimOverride(&scfg)
	}
	sim, err := trafficsim.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: sim: %w", err)
	}
	tcfg := trace.DefaultGenConfig(sim, net.Projection())
	tcfg.Seed = cfg.Seed
	tcfg.Epoch = Epoch
	if !cfg.Diurnal {
		tcfg.Activity = nil
	}
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generator: %w", err)
	}
	matcher, err := mapmatch.New(net, Epoch, mapmatch.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: matcher: %w", err)
	}
	return &World{Net: net, Sim: sim, Gen: gen, Matcher: matcher, Horizon: cfg.Horizon}, nil
}

// Collect runs the world to its horizon, keeping every record in Records
// and the matched ones, per approach and in time order, in Part.
func (w *World) Collect() {
	w.Records = w.Gen.Collect(w.Horizon)
	w.Part = w.Matcher.PartitionRecords(w.Records)
}

// section prints a figure/table header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
