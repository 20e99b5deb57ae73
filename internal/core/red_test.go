package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
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
	// (that survive the over-cycle filter); the likelihood must be closer
	// over repeated draws.
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
		t.Fatalf("likelihood better in only %d/%d trials", better, trials)
	}
}

// reporterStops builds n usable stop runs the way the tape's reporters
// see them. Each taxi reports every 15, 30 or 60 s from a random phase. A
// red-light stop lasts S ~ U(0, red), and one stop in ten is an unflagged
// dwell of S ~ U(0, cycle). A run is the reports inside the stop: Records
// counts them, End - Start is their span, and a run of fewer than two
// reports never reaches the stop index.
func reporterStops(rng *rand.Rand, red, cycle float64, n int) []StopEvent {
	var out []StopEvent
	for len(out) < n {
		c := []float64{15, 30, 60}[rng.Intn(3)]
		s := rng.Float64() * red
		if rng.Float64() < 0.1 {
			s = rng.Float64() * cycle
		}
		first := rng.Float64() * c // the first report after the stop begins
		if first > s {
			continue
		}
		k := 1 + int((s-first)/c)
		if k < 2 {
			continue
		}
		start := float64(len(out)) * 1000
		out = append(out, StopEvent{Plate: "B1", Start: start, End: start + float64(k-1)*c, Records: k})
	}
	return out
}

// TestIdentifyRedFixedCadenceReporters holds the red estimate to the truth
// on stops seen by fixed-cadence reporters: a median signed error within
// 3 s over 20 draws of 60 runs, and no draw more than 12 s off.
func TestIdentifyRedFixedCadenceReporters(t *testing.T) {
	for _, c := range []struct{ red, cycle float64 }{{30, 90}, {45, 100}, {63, 106}, {70, 120}} {
		errs := make([]float64, 20)
		for seed := range errs {
			rng := rand.New(rand.NewSource(int64(seed)))
			red, err := IdentifyRed(reporterStops(rng, c.red, c.cycle, 60), c.cycle, DefaultRedConfig())
			if err != nil {
				t.Fatal(err)
			}
			errs[seed] = red - c.red
			if math.Abs(errs[seed]) > 12 {
				t.Errorf("red %v, cycle %v, seed %d: estimate %v", c.red, c.cycle, seed, red)
			}
		}
		slices.Sort(errs)
		if med := (errs[9] + errs[10]) / 2; math.Abs(med) > 3 {
			t.Errorf("red %v, cycle %v: median signed error %+.1f s", c.red, c.cycle, med)
		}
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
	bad3 := cfg
	bad3.MinStops = 0
	if _, err := IdentifyRed(nil, 100, bad3); err == nil {
		t.Fatal("zero MinStops accepted")
	}
}

func BenchmarkIdentifyRed(b *testing.B) {
	stops := reporterStops(rand.New(rand.NewSource(1)), 63, 106, 100)
	for i := 0; i < b.N; i++ {
		if _, err := IdentifyRed(stops, 106, DefaultRedConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIdentifyRedResultBelowCycle(t *testing.T) {
	// Degenerate input where every run all but spans the cycle must still
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

// MaxStopDuration returns the longest usable stop duration, the naive
// estimator TestIdentifyRedBeatsNaiveMaxWithErrors holds the likelihood
// against.
func MaxStopDuration(stops []StopEvent, cycle float64) (float64, error) {
	usable := FilterStops(stops, cycle)
	if len(usable) == 0 {
		return 0, ErrInsufficientData
	}
	best := 0.0
	for _, e := range usable {
		if d := e.Duration(); d > best {
			best = d
		}
	}
	return best, nil
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

func TestStopEventDuration(t *testing.T) {
	e := StopEvent{Start: 10, End: 73}
	if e.Duration() != 63 {
		t.Fatalf("Duration = %v", e.Duration())
	}
}

// stopRecordLen is the bytes one fuzzed stop event takes: Start and End
// (float64 each), Records (int16) and the occupancy flag (one byte).
const stopRecordLen = 19

// encodeStops is the inverse of decodeStops, for the fuzz seeds.
func encodeStops(cycle float64, stops []StopEvent) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16((cycle-1)*8))
	for _, e := range stops {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Start))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.End))
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(e.Records)))
		occ := byte(0)
		if e.OccupancyChanged {
			occ = 1
		}
		b = append(b, occ)
	}
	return b
}

// decodeStops reads a cycle in [1, 8193) s in eighths of a second, then
// stop events; a non-finite time reads as 0, so every event is finite.
func decodeStops(b []byte) (float64, []StopEvent) {
	if len(b) < 2 {
		return 1, nil
	}
	cycle := 1 + float64(binary.LittleEndian.Uint16(b))/8
	finite := func(u uint64) float64 {
		if x := math.Float64frombits(u); !math.IsInf(x, 0) && !math.IsNaN(x) {
			return x
		}
		return 0
	}
	var stops []StopEvent
	for b = b[2:]; len(b) >= stopRecordLen; b = b[stopRecordLen:] {
		stops = append(stops, StopEvent{
			Start:            finite(binary.LittleEndian.Uint64(b)),
			End:              finite(binary.LittleEndian.Uint64(b[8:])),
			Records:          int(int16(binary.LittleEndian.Uint16(b[16:]))),
			OccupancyChanged: b[18]&1 != 0,
		})
	}
	return cycle, stops
}

// FuzzIdentifyRed feeds the red stage stop events as a hostile feed could
// shape them. It never panics; an estimate is a finite red inside the
// cycle; and a key with MinStops usable runs always gets one.
func FuzzIdentifyRed(f *testing.F) {
	repeat := func(n int, e StopEvent) []StopEvent {
		out := make([]StopEvent, n)
		for i := range out {
			out[i] = e
			out[i].Start += float64(i) * 1000
			out[i].End += float64(i) * 1000
		}
		return out
	}
	// Runs of exactly the cycle, which only the dwells can explain.
	f.Add(encodeStops(100, append(repeat(8, StopEvent{End: 100, Records: 5}), repeat(4, StopEvent{End: 30, Records: 3})...)))
	// The degenerate stops of TestIdentifyRedResultBelowCycle.
	f.Add(encodeStops(106, repeat(20, StopEvent{End: 105.5})))
	// Runs of no cadence, Records 0 and 1, with a positive span.
	f.Add(encodeStops(90, append(repeat(6, StopEvent{End: 20}), repeat(6, StopEvent{End: 41, Records: 1})...)))
	// A single shape, and fixed-cadence runs as the tape's reporters see them.
	f.Add(encodeStops(98, repeat(30, StopEvent{End: 45, Records: 4})))
	f.Add(encodeStops(106, reporterStops(rand.New(rand.NewSource(1)), 63, 106, 40)))
	cfg := DefaultRedConfig()
	f.Fuzz(func(t *testing.T, b []byte) {
		cycle, stops := decodeStops(b)
		red, err := IdentifyRed(stops, cycle, cfg)
		if err == nil && !(red > 0 && red < cycle) {
			t.Fatalf("red %v outside (0, cycle %v)", red, cycle)
		}
		if n := countStopsWithin(stops, cycle); err != nil && n >= cfg.MinStops {
			t.Fatalf("%d usable runs, want a red: %v", n, err)
		}
	})
}
