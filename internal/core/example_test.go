package core_test

import (
	"fmt"
	"math"
	"math/rand"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/lights"
)

func ExampleIdentifyCycle() {
	// A light with a 98 s cycle observed for an hour at ~20 s intervals.
	sched := lights.Schedule{Cycle: 98, Red: 39}
	rng := rand.New(rand.NewSource(1))
	var samples []dsp.Sample
	for t := rng.Float64() * 20; t < 3600; t += 20 * (0.5 + rng.Float64()) {
		v := 35 + rng.NormFloat64()*8
		if sched.StateAt(t) == lights.Red {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		samples = append(samples, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
	}
	cycle, err := core.IdentifyCycle(samples, 0, 3600, core.DefaultCycleConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("identified cycle within 1 s of truth: %v\n", math.Abs(cycle-98) <= 1)
	// Output:
	// identified cycle within 1 s of truth: true
}

func ExampleIdentifyRed() {
	// Stop durations collected in front of a light with a 63 s red.
	rng := rand.New(rand.NewSource(5))
	var stops []core.StopEvent
	for i := 0; i < 300; i++ {
		d := math.Max(2, rng.Float64()*63)
		stops = append(stops, core.StopEvent{Plate: "B1", Start: float64(i) * 106, End: float64(i)*106 + d})
	}
	red, err := core.IdentifyRed(stops, 106, core.DefaultRedConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("red within 5 s of truth: %v\n", math.Abs(red-63) <= 5)
	// Output:
	// red within 5 s of truth: true
}

func ExampleSuperpose() {
	// Samples at the same phase of consecutive cycles fold together.
	samples := []dsp.Sample{
		{T: 41, V: 1},
		{T: 41 + 98, V: 2},
		{T: 41 + 2*98, V: 3},
	}
	folded, err := core.Superpose(samples, 98, 0)
	if err != nil {
		panic(err)
	}
	for _, s := range folded {
		fmt.Printf("phase %.0f value %.0f\n", s.T, s.V)
	}
	// Output:
	// phase 41 value 1
	// phase 41 value 2
	// phase 41 value 3
}

func ExampleDetectSchedulingChanges() {
	// Cycle estimates every 5 minutes: 90 s until t=3600, then 150 s.
	var series []core.CyclePoint
	for t := 0.0; t < 7200; t += 300 {
		cycle := 90.0
		if t >= 3600 {
			cycle = 150
		}
		series = append(series, core.CyclePoint{T: t, Cycle: cycle})
	}
	changes, err := core.DetectSchedulingChanges(series)
	if err != nil {
		panic(err)
	}
	for _, c := range changes {
		fmt.Printf("change at t=%.0f: %.0f s -> %.0f s\n", c.T, c.From, c.To)
	}
	// Output:
	// change at t=3600: 90 s -> 150 s
}

func ExampleHistory() {
	h := core.NewHistory()
	// Three days of clean estimates at 09:00, then a gross DFT error.
	for day := 0; day < 3; day++ {
		h.Add(float64(day)*86400+9*3600, 98)
	}
	v, corrected := h.Correct(3*86400+9*3600, 277)
	fmt.Printf("corrected: %v -> %.0f s\n", corrected, v)
	// Output:
	// corrected: true -> 98 s
}

func ExampleMonitor() {
	var m core.Monitor
	for t := 0.0; t < 7200; t += 300 {
		cycle := 90.0
		if t >= 3600 {
			cycle = 150
		}
		for _, c := range m.Feed(core.CyclePoint{T: t, Cycle: cycle}) {
			fmt.Printf("plan switch near t=%.0f s: %.0f -> %.0f\n", c.T, c.From, c.To)
		}
	}
	// Output:
	// plan switch near t=3600 s: 90 -> 150
}
