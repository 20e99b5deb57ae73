package core

import (
	"errors"
	"math"
	"testing"

	"taxilight/internal/dsp"
	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
)

// Failure-injection tests: every stage must degrade into a typed error or
// a bounded result, never a panic or a fabricated schedule, when the data
// is hostile.

func TestIdentifyCycleConstantSpeed(t *testing.T) {
	// A jammed road: every sample is 0 km/h. There is no periodicity to
	// find; the estimator must return *something* in band (the DFT of a
	// constant is all zeros, so argmax falls to the band edge) without
	// panicking, or error out — either way no NaN.
	var samples []dsp.Sample
	for i := 0; i < 200; i++ {
		samples = append(samples, dsp.Sample{T: float64(i * 18), V: 0})
	}
	got, err := IdentifyCycle(samples, 0, 3600, DefaultCycleConfig())
	if err == nil {
		if math.IsNaN(got) || got < 40 || got > 300 {
			t.Fatalf("constant signal gave cycle %v", got)
		}
	}
}

func TestIdentifyCycleSingleRepeatedSecond(t *testing.T) {
	// All records in the same second collapse to one sample.
	var samples []dsp.Sample
	for i := 0; i < 50; i++ {
		samples = append(samples, dsp.Sample{T: 100.4, V: float64(i)})
	}
	if _, err := IdentifyCycle(samples, 0, 3600, DefaultCycleConfig()); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v, want insufficient data", err)
	}
}

func TestIdentifyRedAllDwells(t *testing.T) {
	// Every stop is a flagged passenger stop: filtered to nothing.
	var stops []StopEvent
	for i := 0; i < 50; i++ {
		stops = append(stops, StopEvent{
			Start: float64(i) * 100, End: float64(i)*100 + 40,
			OccupancyChanged: true, Records: 3,
		})
	}
	if _, err := IdentifyRed(stops, 100, DefaultRedConfig()); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineAllStoppedRecords(t *testing.T) {
	// A partition of nothing but one taxi parked forever: cycle
	// identification must fail cleanly for that approach.
	var ms []mapmatch.Matched
	for i := 0; i < 300; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate: "B1", SpeedKMH: 0,
			T:          float64(i * 15),
			Snapped:    geo.XY{X: 1, Y: 1},
			Light:      3,
			Approach:   lights.NorthSouth,
			DistToStop: 40,
		})
	}
	part := mapmatch.Partition{
		mapmatch.Key{Light: 3, Approach: lights.NorthSouth}: ms,
	}
	res, err := RunPipeline(part, 0, 4500, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res[mapmatch.Key{Light: 3, Approach: lights.NorthSouth}]
	if r.Err == nil {
		// If the degenerate constant signal sneaks through the cycle
		// stage, the red stage must still bound the output.
		if r.Red <= 0 || r.Red >= r.Cycle {
			t.Fatalf("degenerate result unbounded: %+v", r)
		}
	}
}

func TestEngineSurvivesGarbageIngestion(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Records far in the past, the future, and interleaved plates.
	var ms []mapmatch.Matched
	for i := 0; i < 100; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate: "B1", SpeedKMH: float64(i % 50),
			T:        float64((i * 7919) % 5000), // scrambled order
			Light:    1,
			Approach: lights.NorthSouth,
		})
	}
	eng.Ingest(ms)
	if _, err := eng.Advance(5000); err != nil {
		t.Fatal(err)
	}
	// Whatever estimates exist must be internally consistent.
	for key, res := range eng.Snapshot() {
		if res.Err != nil {
			continue
		}
		if res.Cycle <= 0 || res.Red <= 0 || res.Red >= res.Cycle {
			t.Fatalf("key %v: inconsistent estimate %+v", key, res)
		}
	}
}

func TestSuperposeExtremeValues(t *testing.T) {
	samples := []dsp.Sample{
		{T: 1e12, V: 1},
		{T: -1e12, V: 2},
		{T: 0, V: 3},
	}
	folded, err := Superpose(samples, 98, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range folded {
		if s.T < 0 || s.T >= 98 || math.IsNaN(s.T) {
			t.Fatalf("extreme time folded to %v", s.T)
		}
	}
}
