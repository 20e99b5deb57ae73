package navigation

import (
	"fmt"
	"math/rand"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

// Fig15Config parameterises the paper's demo topology: a grid whose
// shortest road segment is 1 km, a light on every intersection, cycle
// lengths drawn uniformly from [CycleMin, CycleMax] and red == green.
type Fig15Config struct {
	Rows, Cols         int
	SegmentMeters      float64
	SpeedMS            float64
	CycleMin, CycleMax float64
	Seed               int64
}

// DefaultFig15Config reproduces the paper's parameters: 1 km segments and
// cycles in [120 s, 300 s]. The paper does not state the driving speed;
// 60 km/h free flow is assumed.
func DefaultFig15Config() Fig15Config {
	return Fig15Config{
		Rows: 8, Cols: 8,
		SegmentMeters: 1000,
		SpeedMS:       16.7,
		CycleMin:      120, CycleMax: 300,
		Seed: 1,
	}
}

// Validate checks the configuration.
func (c Fig15Config) Validate() error {
	switch {
	case c.Rows < 2 || c.Cols < 2:
		return fmt.Errorf("navigation: grid needs at least 2x2, got %dx%d", c.Rows, c.Cols)
	case c.SegmentMeters <= 0 || c.SpeedMS <= 0:
		return fmt.Errorf("navigation: non-positive segment length or speed")
	case c.CycleMin <= 0 || c.CycleMax < c.CycleMin:
		return fmt.Errorf("navigation: bad cycle range [%v, %v]", c.CycleMin, c.CycleMax)
	}
	return nil
}

// BuildFig15Grid constructs the demo network.
func BuildFig15Grid(cfg Fig15Config) (*roadnet.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := roadnet.NewNetwork(geo.Point{Lat: 22.543, Lon: 114.06})
	ids := make([][]roadnet.NodeID, cfg.Rows)
	lightID := 0
	for r := 0; r < cfg.Rows; r++ {
		ids[r] = make([]roadnet.NodeID, cfg.Cols)
		for c := 0; c < cfg.Cols; c++ {
			cycle := cfg.CycleMin + rng.Float64()*(cfg.CycleMax-cfg.CycleMin)
			cycle = float64(int(cycle))
			sched := lights.Schedule{
				Cycle:  cycle,
				Red:    cycle / 2, // the paper: red and green have the same duration
				Offset: float64(int(rng.Float64() * cycle)),
			}
			light := &lights.Intersection{ID: lightID, Ctrl: lights.Static{S: sched}}
			lightID++
			pos := geo.XY{X: float64(c) * cfg.SegmentMeters, Y: float64(r) * cfg.SegmentMeters}
			ids[r][c] = net.AddNode(pos, light)
		}
	}
	addBoth := func(a, b roadnet.NodeID, name string) error {
		if _, err := net.AddSegment(a, b, name, cfg.SpeedMS); err != nil {
			return err
		}
		_, err := net.AddSegment(b, a, name, cfg.SpeedMS)
		return err
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				if err := addBoth(ids[r][c], ids[r][c+1], fmt.Sprintf("h%d.%d", r, c)); err != nil {
					return nil, err
				}
			}
			if r+1 < cfg.Rows {
				if err := addBoth(ids[r][c], ids[r+1][c], fmt.Sprintf("v%d.%d", c, r)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := net.Finalize(); err != nil {
		return nil, err
	}
	return net, nil
}

// ComparisonPoint is one row of the Fig. 16 series: mean travel times of
// both navigation modes for trips of one distance class.
type ComparisonPoint struct {
	// DistanceKM is the shortest-path trip distance class.
	DistanceKM float64
	// Baseline and Aware are mean realised travel times in seconds.
	Baseline, Aware float64
	// SavingPct is the relative improvement of Aware over Baseline.
	SavingPct float64
	// Trips is the number of OD pairs averaged.
	Trips int
}

// CompareConfig controls the Fig. 16 experiment.
type CompareConfig struct {
	TripsPerClass int
	Seed          int64
	// Planner selects the light-aware planner: true uses the exact
	// time-dependent Dijkstra, false the paper's exhaustive enumeration
	// (small grids only).
	UseDijkstra bool
	// MaxExtraHops configures the enumerating planner.
	MaxExtraHops int
}

// DefaultCompareConfig evaluates 40 trips per distance class with the
// exact planner.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{TripsPerClass: 40, Seed: 1, UseDijkstra: true, MaxExtraHops: 2}
}

// CompareNavigation reproduces Fig. 16: for every achievable hop distance
// in the grid, it draws random OD pairs at that distance, drives them
// under conventional and light-aware navigation, and reports the mean
// travel times. Departure times are randomised so waits sample all light
// phases.
func CompareNavigation(net *roadnet.Network, segMeters float64, cfg CompareConfig) ([]ComparisonPoint, error) {
	if cfg.TripsPerClass < 1 {
		return nil, fmt.Errorf("navigation: TripsPerClass %d < 1", cfg.TripsPerClass)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	baseline := &ShortestTimePlanner{Net: net}
	var aware Planner
	if cfg.UseDijkstra {
		aware = &BelievedPlanner{Net: net, Source: TruthSource{Net: net}}
	} else {
		aware = &EnumeratingPlanner{Net: net, MaxExtraHops: cfg.MaxExtraHops}
	}
	// Bucket OD pairs by hop distance.
	type od struct{ a, b roadnet.NodeID }
	byHops := map[int][]od{}
	nn := net.NumNodes()
	for a := 0; a < nn; a++ {
		d, err := hopDistancesFrom(net, roadnet.NodeID(a))
		if err != nil {
			return nil, err
		}
		for b := 0; b < nn; b++ {
			if a != b && d[b] > 0 {
				byHops[d[b]] = append(byHops[d[b]], od{roadnet.NodeID(a), roadnet.NodeID(b)})
			}
		}
	}
	maxHops := 0
	for h := range byHops {
		if h > maxHops {
			maxHops = h
		}
	}
	var out []ComparisonPoint
	for h := 1; h <= maxHops; h++ {
		pairs := byHops[h]
		if len(pairs) == 0 {
			continue
		}
		var sumBase, sumAware float64
		trips := 0
		for i := 0; i < cfg.TripsPerClass; i++ {
			p := pairs[rng.Intn(len(pairs))]
			depart := rng.Float64() * 3600
			rb, err := Drive(net, baseline, p.a, p.b, depart)
			if err != nil {
				return nil, fmt.Errorf("navigation: baseline trip %d->%d: %w", p.a, p.b, err)
			}
			ra, err := Drive(net, aware, p.a, p.b, depart)
			if err != nil {
				return nil, fmt.Errorf("navigation: aware trip %d->%d: %w", p.a, p.b, err)
			}
			sumBase += rb.Duration
			sumAware += ra.Duration
			trips++
		}
		pt := ComparisonPoint{
			DistanceKM: float64(h) * segMeters / 1000,
			Baseline:   sumBase / float64(trips),
			Aware:      sumAware / float64(trips),
			Trips:      trips,
		}
		if pt.Baseline > 0 {
			pt.SavingPct = 100 * (pt.Baseline - pt.Aware) / pt.Baseline
		}
		out = append(out, pt)
	}
	return out, nil
}
