package lights

import (
	"math/rand"
	"testing"
)

func TestGreenWaveOffsetsZeroDelay(t *testing.T) {
	const cycle, red = 100.0, 45.0
	travel := []float64{37, 61, 144}
	offsets, err := GreenWaveOffsets(cycle, red, 12, travel)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 4 {
		t.Fatalf("offsets = %v", offsets)
	}
	scheds := make([]Schedule, len(offsets))
	for i, off := range offsets {
		scheds[i] = Schedule{Cycle: cycle, Red: red, Offset: off}
	}
	delay, err := CorridorDelay(scheds, travel)
	if err != nil {
		t.Fatal(err)
	}
	if delay > 1e-6 {
		t.Fatalf("coordinated corridor delay = %v, want 0", delay)
	}
}

func TestGreenWaveBeatsRandomOffsets(t *testing.T) {
	const cycle, red = 100.0, 45.0
	travel := []float64{37, 61, 144, 52}
	offsets, err := GreenWaveOffsets(cycle, red, 0, travel)
	if err != nil {
		t.Fatal(err)
	}
	coordinated := make([]Schedule, len(offsets))
	for i, off := range offsets {
		coordinated[i] = Schedule{Cycle: cycle, Red: red, Offset: off}
	}
	good, err := CorridorDelay(coordinated, travel)
	if err != nil {
		t.Fatal(err)
	}
	// Average delay over many random offset plans.
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		random := make([]Schedule, len(offsets))
		for i := range random {
			random[i] = Schedule{Cycle: cycle, Red: red, Offset: rng.Float64() * cycle}
		}
		d, err := CorridorDelay(random, travel)
		if err != nil {
			t.Fatal(err)
		}
		sum += d
	}
	mean := sum / trials
	// Uncoordinated corridors average ~ nLights * red^2/(2 cycle) waits.
	if good >= mean/2 {
		t.Fatalf("green wave delay %v not clearly below random mean %v", good, mean)
	}
}

func TestGreenWaveErrors(t *testing.T) {
	if _, err := GreenWaveOffsets(0, 10, 0, nil); err == nil {
		t.Fatal("zero cycle accepted")
	}
	if _, err := GreenWaveOffsets(100, 0, 0, nil); err == nil {
		t.Fatal("zero red accepted")
	}
	if _, err := GreenWaveOffsets(100, 40, 0, []float64{-5}); err == nil {
		t.Fatal("negative travel time accepted")
	}
	ok := []Schedule{{Cycle: 100, Red: 40}, {Cycle: 100, Red: 40}}
	if _, err := CorridorDelay(ok, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := []Schedule{{Cycle: 100, Red: 40}, {Cycle: 90, Red: 40}}
	if _, err := CorridorDelay(bad, []float64{30}); err == nil {
		t.Fatal("mixed cycles accepted")
	}
	invalid := []Schedule{{Cycle: 100, Red: 0}, {Cycle: 100, Red: 40}}
	if _, err := CorridorDelay(invalid, []float64{30}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
