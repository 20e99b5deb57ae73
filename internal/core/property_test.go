package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"taxilight/internal/dsp"
)

// Property: superposition preserves phase relationships — two samples one
// whole cycle apart fold onto the same position, regardless of cycle,
// origin and offset.
func TestSuperposePhasePreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := 40 + rng.Float64()*260
		t0 := rng.Float64() * 1e4
		base := rng.Float64() * 1e4
		k := 1 + rng.Intn(20)
		samples := []dsp.Sample{
			{T: base, V: 1},
			{T: base + float64(k)*cycle, V: 2},
		}
		folded, err := Superpose(samples, cycle, t0)
		if err != nil {
			return false
		}
		return math.Abs(folded[0].T-folded[1].T) < 1e-6 ||
			math.Abs(math.Abs(folded[0].T-folded[1].T)-cycle) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every folded time lies in [0, cycle).
func TestSuperposeRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := 1 + rng.Float64()*300
		var samples []dsp.Sample
		for i := 0; i < 50; i++ {
			samples = append(samples, dsp.Sample{T: rng.NormFloat64() * 1e4, V: rng.Float64()})
		}
		folded, err := Superpose(samples, cycle, rng.NormFloat64()*1e3)
		if err != nil {
			return false
		}
		for _, s := range folded {
			if s.T < 0 || s.T >= cycle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PhaseError is a pseudometric on the circle — symmetric,
// bounded by cycle/2, zero on identical phases, and invariant under
// adding whole cycles.
func TestPhaseErrorProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := 1 + rng.Float64()*300
		a := rng.Float64() * cycle
		b := rng.Float64() * cycle
		d := PhaseError(a, b, cycle)
		if d < 0 || d > cycle/2+1e-9 {
			return false
		}
		if math.Abs(d-PhaseError(b, a, cycle)) > 1e-9 {
			return false
		}
		if PhaseError(a, a, cycle) > 1e-9 {
			return false
		}
		k := float64(1 + rng.Intn(5))
		return math.Abs(d-PhaseError(a+k*cycle, b, cycle)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: IdentifyRed always returns a value in (0, cycle) when it
// succeeds, no matter how adversarial the stop durations are.
func TestIdentifyRedBoundsProperty(t *testing.T) {
	cfg := DefaultRedConfig()
	cfg.MinStops = 1
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := 30 + rng.Float64()*270
		n := 1 + rng.Intn(60)
		stops := make([]StopEvent, n)
		for i := range stops {
			d := rng.Float64() * cycle * 1.5 // some exceed the cycle: filtered
			stops[i] = StopEvent{
				Plate:   "B1",
				Start:   float64(i) * cycle,
				End:     float64(i)*cycle + d,
				Records: 2 + rng.Intn(5),
			}
		}
		red, err := IdentifyRed(stops, cycle, cfg)
		if err != nil {
			return true // insufficient data is a legal outcome
		}
		return red > 0 && red < cycle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FilterStops never keeps an event that violates any filter and
// never drops one that satisfies all of them.
func TestFilterStopsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := 30 + rng.Float64()*270
		n := rng.Intn(40)
		stops := make([]StopEvent, n)
		for i := range stops {
			stops[i] = StopEvent{
				Start:            rng.Float64() * 100,
				End:              rng.Float64() * 500,
				OccupancyChanged: rng.Intn(3) == 0,
			}
		}
		kept := FilterStops(stops, cycle)
		want := 0
		for _, e := range stops {
			d := e.Duration()
			if d > 0 && d <= cycle && !e.OccupancyChanged {
				want++
			}
		}
		if len(kept) != want {
			return false
		}
		for _, e := range kept {
			if e.Duration() <= 0 || e.Duration() > cycle || e.OccupancyChanged {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MedianFilter output stays within the input's range and is
// idempotent for constant series.
func TestMedianFilterProperties(t *testing.T) {
	f := func(raw []float64, wseedRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		w := 1 + 2*int(wseedRaw%4) // 1, 3, 5, 7
		out := MedianFilter(raw, w)
		lo, hi := raw[0], raw[0]
		for _, v := range raw {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, v := range out {
			if v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
		}
		return len(out) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: History.Correct never invents values — the output is either
// the input or the slot median.
func TestHistoryCorrectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistory()
		var added []float64
		tBase := rng.Float64() * 86400
		for i := 0; i < 1+rng.Intn(10); i++ {
			v := 60 + rng.Float64()*120
			h.Add(tBase+float64(i)*86400, v)
			added = append(added, v)
		}
		probe := 60 + rng.Float64()*200
		got, corrected := h.Correct(tBase, probe)
		if !corrected {
			return got == probe
		}
		med, _ := h.SlotMedian(tBase)
		return got == med
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
