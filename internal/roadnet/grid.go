package roadnet

import (
	"fmt"
	"math"
	"math/rand"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

// GridConfig parameterises the synthetic city generator. The defaults in
// DefaultGridConfig model a Shenzhen-like district: a block grid with
// signalised crossroads, mostly static lights with a pre-programmed
// dynamic share in the "downtown" core.
type GridConfig struct {
	Rows, Cols int     // number of intersections in each direction
	Spacing    float64 // block edge length in metres
	// SpeedLimit is the free-flow limit on every road, in m/s.
	SpeedLimit float64
	// CycleMin/CycleMax bound the static light cycle lengths (seconds).
	CycleMin, CycleMax float64
	// RedFracMin/RedFracMax bound the red share of the cycle for the
	// north-south approach.
	RedFracMin, RedFracMax float64
	// DynamicShare is the fraction of lights given a pre-programmed
	// dynamic (peak/off-peak) plan instead of a static schedule.
	DynamicShare float64
	// RotationDeg rotates the whole street grid about the origin —
	// real cities are rarely axis-aligned, and a rotated grid exercises
	// the NS/EW approach classification away from the cardinal axes.
	RotationDeg float64
	// PosJitter displaces every intersection by up to this many metres
	// in each axis, bending the perfect grid into an irregular network.
	// Keep it well below Spacing/2.
	PosJitter float64
	// Seed drives all randomness; identical configs generate identical
	// cities.
	Seed int64
	// Origin anchors the planar frame (defaults to downtown Shenzhen
	// when zero).
	Origin geo.Point
}

// DefaultGridConfig returns a 6x6 city of 800 m blocks resembling the
// paper's study area, with static cycles of 80-140 s: the range every
// simulated world draws (internal/experiments' recipe, the grid of
// roadnet.LoadNetwork, the bench tapes).
func DefaultGridConfig() GridConfig {
	return GridConfig{
		Rows: 6, Cols: 6,
		Spacing:    800,
		SpeedLimit: 13.9, // 50 km/h
		CycleMin:   80, CycleMax: 140,
		RedFracMin: 0.35, RedFracMax: 0.65,
		DynamicShare: 0.2,
		Seed:         1,
		Origin:       geo.Point{Lat: 22.543, Lon: 114.06},
	}
}

// Validate checks the configuration for obvious mistakes.
func (c GridConfig) Validate() error {
	switch {
	case c.Rows < 2 || c.Cols < 2:
		return fmt.Errorf("roadnet: grid needs at least 2x2 intersections, got %dx%d", c.Rows, c.Cols)
	case c.Spacing <= 0:
		return fmt.Errorf("roadnet: non-positive spacing %v", c.Spacing)
	case c.SpeedLimit <= 0:
		return fmt.Errorf("roadnet: non-positive speed limit %v", c.SpeedLimit)
	case c.CycleMin <= 0 || c.CycleMax < c.CycleMin:
		return fmt.Errorf("roadnet: bad cycle range [%v, %v]", c.CycleMin, c.CycleMax)
	case c.RedFracMin <= 0 || c.RedFracMax >= 1 || c.RedFracMax < c.RedFracMin:
		return fmt.Errorf("roadnet: bad red fraction range [%v, %v]", c.RedFracMin, c.RedFracMax)
	case c.DynamicShare < 0 || c.DynamicShare > 1:
		return fmt.Errorf("roadnet: dynamic share %v outside [0,1]", c.DynamicShare)
	case c.PosJitter < 0 || c.PosJitter >= c.Spacing/2:
		return fmt.Errorf("roadnet: jitter %v outside [0, spacing/2)", c.PosJitter)
	case c.RotationDeg < -45 || c.RotationDeg > 45:
		return fmt.Errorf("roadnet: rotation %v outside [-45, 45] (approach classification would flip)", c.RotationDeg)
	}
	return nil
}

// GenerateGrid builds a Rows x Cols signalised grid city. Every
// intersection gets a light; horizontal roads are named "EW<r>" and
// vertical roads "NS<c>", segment names carry the block index. The
// returned network is finalized and ready for queries.
func GenerateGrid(cfg GridConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Origin.IsZero() {
		cfg.Origin = geo.Point{Lat: 22.543, Lon: 114.06}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := NewNetwork(cfg.Origin)

	randSchedule := func() lights.Schedule {
		cycle := cfg.CycleMin + rng.Float64()*(cfg.CycleMax-cfg.CycleMin)
		// Round to whole seconds: real controllers are second-granular,
		// and it keeps ground truth legible in experiment output.
		cycle = float64(int(cycle))
		frac := cfg.RedFracMin + rng.Float64()*(cfg.RedFracMax-cfg.RedFracMin)
		red := float64(int(cycle * frac))
		if red < 1 {
			red = 1
		}
		if red > cycle-1 {
			red = cycle - 1
		}
		return lights.Schedule{Cycle: cycle, Red: red, Offset: float64(int(rng.Float64() * cycle))}
	}

	ids := make([][]NodeID, cfg.Rows)
	lightID := 0
	for r := 0; r < cfg.Rows; r++ {
		ids[r] = make([]NodeID, cfg.Cols)
		for c := 0; c < cfg.Cols; c++ {
			var ctrl lights.Controller
			if rng.Float64() < cfg.DynamicShare {
				offPeak := randSchedule()
				peak := lights.Schedule{
					Cycle:  float64(int(offPeak.Cycle * 1.5)),
					Red:    float64(int(offPeak.Red * 1.5)),
					Offset: offPeak.Offset,
				}
				dyn, err := lights.NewDynamic([]lights.PlanEntry{
					{DaySecond: 7 * 3600, S: peak},
					{DaySecond: 10 * 3600, S: offPeak},
					{DaySecond: 17 * 3600, S: peak},
					{DaySecond: 20 * 3600, S: offPeak},
				})
				if err != nil {
					return nil, fmt.Errorf("roadnet: dynamic plan: %w", err)
				}
				ctrl = dyn
			} else {
				ctrl = lights.Static{S: randSchedule()}
			}
			light := &lights.Intersection{ID: lightID, Ctrl: ctrl}
			lightID++
			pos := geo.XY{X: float64(c) * cfg.Spacing, Y: float64(r) * cfg.Spacing}
			if cfg.PosJitter > 0 {
				pos.X += (rng.Float64()*2 - 1) * cfg.PosJitter
				pos.Y += (rng.Float64()*2 - 1) * cfg.PosJitter
			}
			if cfg.RotationDeg != 0 {
				rad := geo.Radians(cfg.RotationDeg)
				cosR, sinR := math.Cos(rad), math.Sin(rad)
				pos = geo.XY{X: pos.X*cosR - pos.Y*sinR, Y: pos.X*sinR + pos.Y*cosR}
			}
			ids[r][c] = net.AddNode(pos, light)
		}
	}
	addBoth := func(a, b NodeID, name string) error {
		if _, err := net.AddSegment(a, b, name, cfg.SpeedLimit); err != nil {
			return err
		}
		_, err := net.AddSegment(b, a, name, cfg.SpeedLimit)
		return err
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				if err := addBoth(ids[r][c], ids[r][c+1], fmt.Sprintf("EW%d.%d", r, c)); err != nil {
					return nil, err
				}
			}
			if r+1 < cfg.Rows {
				if err := addBoth(ids[r][c], ids[r+1][c], fmt.Sprintf("NS%d.%d", c, r)); err != nil {
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
