// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic substrate: each Fig*/Table* function
// builds a deterministic simulated world, runs the relevant part of the
// pipeline, and prints the same rows/series the paper reports, alongside
// ground truth. cmd/experiments exposes them on the command line and the
// repository-root benchmarks wrap them for `go test -bench`.
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

// World bundles one simulated city, its taxi trace and the partitioned
// records, ready for identification experiments.
type World struct {
	Net     *roadnet.Network
	Sim     *trafficsim.Simulator
	Gen     *trace.Generator
	Records []trace.Record
	Part    mapmatch.Partition
	Matcher *mapmatch.Matcher
	// Horizon is the simulated duration in seconds.
	Horizon float64
}

// WorldConfig parameterises BuildWorld.
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

// BuildWorld constructs the full simulated stack deterministically from
// the config.
func BuildWorld(cfg WorldConfig) (*World, error) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = cfg.Rows, cfg.Cols
	gcfg.Seed = cfg.Seed
	gcfg.DynamicShare = cfg.DynamicShare
	gcfg.CycleMin, gcfg.CycleMax = 80, 140
	if cfg.GridOverride != nil {
		cfg.GridOverride(&gcfg)
	}
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: grid: %w", err)
	}
	return buildWorldOn(net, cfg)
}

// buildWorldOn simulates traffic and generates the trace on an existing
// network (used when a caller customises light controllers first).
func buildWorldOn(net *roadnet.Network, cfg WorldConfig) (*World, error) {
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
	records := gen.Collect(cfg.Horizon)
	matcher, err := mapmatch.New(net, Epoch, mapmatch.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: matcher: %w", err)
	}
	return &World{
		Net:     net,
		Sim:     sim,
		Gen:     gen,
		Records: records,
		Part:    matcher.PartitionRecords(records),
		Matcher: matcher,
		Horizon: cfg.Horizon,
	}, nil
}

// section prints a figure/table header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
