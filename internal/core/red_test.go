package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// syntheticStops builds stop events as a red light produces them: taxis
// arriving uniformly during red wait for the remainder of the phase, plus
// a share of unrelated longer "error" stops.
func syntheticStops(rng *rand.Rand, red, cycle float64, n int, errShare float64) []StopEvent {
	var out []StopEvent
	for i := 0; i < n; i++ {
		var d float64
		if rng.Float64() < errShare {
			// Error stop: kerbside dwell anywhere up to ~2 cycles.
			d = red + rng.Float64()*(1.8*cycle-red)
		} else {
			// Arrival at a uniform phase within red waits the rest of it.
			d = rng.Float64() * red
			if d < 2 {
				d = 2
			}
		}
		out = append(out, StopEvent{
			Plate: "B0001",
			Start: float64(i) * cycle,
			End:   float64(i)*cycle + d,
		})
	}
	return out
}

func TestFilterStops(t *testing.T) {
	stops := []StopEvent{
		{Start: 0, End: 30},                         // valid
		{Start: 0, End: 200},                        // longer than cycle: dropped
		{Start: 0, End: 40, OccupancyChanged: true}, // passenger stop: dropped
		{Start: 10, End: 10},                        // zero duration: dropped
		{Start: 10, End: 5},                         // negative: dropped
		{Start: 0, End: 106},                        // exactly cycle: kept
	}
	got := FilterStops(stops, 106)
	if len(got) != 2 {
		t.Fatalf("filtered = %d, want 2: %+v", len(got), got)
	}
}

func TestIdentifyRedFig9Scenario(t *testing.T) {
	// Fig. 9: cycle 106 s, ground truth red 63 s, <10 % errors, bins of
	// one mean sample interval (20.14 s).
	rng := rand.New(rand.NewSource(5))
	stops := syntheticStops(rng, 63, 106, 400, 0.08)
	red, err := IdentifyRed(stops, 106, DefaultRedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(red-63) > 8 {
		t.Fatalf("red = %v, want ~63", red)
	}
}

func TestIdentifyRedNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	stops := syntheticStops(rng, 39, 98, 300, 0)
	red, err := IdentifyRed(stops, 98, DefaultRedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(red-39) > 8 {
		t.Fatalf("red = %v, want ~39", red)
	}
}

func TestIdentifyRedBeatsNaiveMaxWithErrors(t *testing.T) {
	// The naive max-stop estimator is pulled far right by error stops
	// (that survive the over-cycle filter); the border-interval
	// estimator must be closer over repeated draws.
	const red, cycle = 63.0, 106.0
	better := 0
	trials := 20
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		stops := syntheticStops(rng, red, cycle, 300, 0.10)
		est, err := IdentifyRed(stops, cycle, DefaultRedConfig())
		if err != nil {
			t.Fatal(err)
		}
		naive, err := MaxStopDuration(stops, cycle)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-red) < math.Abs(naive-red) {
			better++
		}
	}
	if better < trials*2/3 {
		t.Fatalf("border-interval better in only %d/%d trials", better, trials)
	}
}

func TestIdentifyRedErrors(t *testing.T) {
	cfg := DefaultRedConfig()
	if _, err := IdentifyRed(nil, 100, cfg); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := IdentifyRed(nil, -5, cfg); err == nil {
		t.Fatal("negative cycle accepted")
	}
	bad := cfg
	bad.SampleInterval = 0
	if _, err := IdentifyRed(nil, 100, bad); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad2 := cfg
	bad2.ValidFraction = 1.5
	if _, err := IdentifyRed(nil, 100, bad2); err == nil {
		t.Fatal("bad fraction accepted")
	}
	bad3 := cfg
	bad3.MinStops = 0
	if _, err := IdentifyRed(nil, 100, bad3); err == nil {
		t.Fatal("zero MinStops accepted")
	}
}

func TestIdentifyRedResultBelowCycle(t *testing.T) {
	// Degenerate input where everything lands in the last bin must still
	// return red < cycle.
	var stops []StopEvent
	for i := 0; i < 20; i++ {
		stops = append(stops, StopEvent{Start: 0, End: 105.5})
	}
	red, err := IdentifyRed(stops, 106, DefaultRedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if red >= 106 {
		t.Fatalf("red = %v >= cycle", red)
	}
}

func TestMaxStopDuration(t *testing.T) {
	stops := []StopEvent{
		{Start: 0, End: 30},
		{Start: 0, End: 55},
		{Start: 0, End: 300}, // dropped by cycle filter
	}
	d, err := MaxStopDuration(stops, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d != 55 {
		t.Fatalf("max = %v, want 55", d)
	}
	if _, err := MaxStopDuration(nil, 100); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

func TestStopDurationsSorted(t *testing.T) {
	stops := []StopEvent{{Start: 0, End: 50}, {Start: 0, End: 20}, {Start: 0, End: 35}}
	ds := StopDurations(stops, 100)
	if len(ds) != 3 || ds[0] != 20 || ds[2] != 50 {
		t.Fatalf("durations = %v", ds)
	}
}

func TestStopEventDuration(t *testing.T) {
	e := StopEvent{Start: 10, End: 73}
	if e.Duration() != 63 {
		t.Fatalf("Duration = %v", e.Duration())
	}
}
