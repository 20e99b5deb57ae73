package core

import (
	"math"
	"math/rand"
	"testing"

	"taxilight/internal/dsp"
)

// sameBits reports whether two floats are the same value bit for bit,
// any NaN equal to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkFoldOrder holds the engine's fold (counting sort, insertion-sort
// finish) to the batch fold (stable comparison sort by phase): the same
// samples in the same places, bit for bit. Every sample carries its input
// position as the value, so two samples of equal phase that swapped
// places would show.
func checkFoldOrder(t *testing.T, sc *identifyScratch, times []float64, cycle, t0 float64) {
	t.Helper()
	samples := make([]dsp.Sample, len(times))
	for i, tm := range times {
		samples[i] = dsp.Sample{T: tm, V: float64(i)}
	}
	want := superposeTo(make([]dsp.Sample, len(samples)), samples, cycle, t0)
	got, err := superposeSc(sc, samples, cycle, t0)
	if err != nil {
		t.Fatalf("superposeSc(cycle %v): %v", cycle, err)
	}
	if len(got) != len(want) {
		t.Fatalf("fold of %d samples has %d", len(want), len(got))
	}
	for i := range want {
		if !sameBits(got[i].T, want[i].T) || got[i].V != want[i].V {
			t.Fatalf("cycle %v t0 %v: position %d holds sample %v at phase %v, the stable sort puts sample %v at phase %v there\ntimes %v",
				cycle, t0, i, got[i].V, got[i].T, want[i].V, want[i].T, times)
		}
	}
}

func TestFoldOrderMatchesStableSort(t *testing.T) {
	sc := &identifyScratch{}
	rng := rand.New(rand.NewSource(19))
	cycles := func() float64 {
		switch rng.Intn(5) {
		case 0: // integer cycles: whole-second times fold onto equal phases
			return float64(20 + rng.Intn(300))
		case 1: // shorter than one fold-curve slot pair
			return 0.25 + rng.Float64()*1.75
		case 2: // a DFT bin of an 1800 s window
			return 1800 / float64(6+rng.Intn(40))
		default:
			return 20 + rng.Float64()*300
		}
	}
	for n := 0; n < 4000; n++ {
		cycle, t0 := cycles(), math.Floor(rng.Float64()*7200-1800)
		times := make([]float64, rng.Intn(120))
		for i := range times {
			switch rng.Intn(6) {
			case 0: // a whole number of cycles from the origin, either side
				times[i] = t0 + float64(rng.Intn(60)-20)*cycle
			case 1: // the same phase reached from different cycles
				times[i] = t0 + 7 + float64(rng.Intn(40)-10)*cycle
			case 2: // just before the origin: the corrected phase rounds to the cycle itself
				times[i] = t0 - math.Ldexp(rng.Float64(), -40-rng.Intn(30))
			case 3: // a report again in the same second
				if i > 0 {
					times[i] = times[i-1]
					break
				}
				fallthrough
			default: // whole-second reports, as a feed delivers them
				times[i] = t0 + math.Floor(rng.Float64()*3600-600)
			}
		}
		checkFoldOrder(t, sc, times, cycle, t0)
	}

	// Times no phase can be computed from take the comparison sort; so does
	// a cycle too long for the slot table. Both must still agree.
	inf, nan := math.Inf(1), math.NaN()
	for _, times := range [][]float64{
		{5, nan, 3, 95, 4},
		{5, inf, 3, -inf, 4, 3},
		{nan, nan},
	} {
		checkFoldOrder(t, sc, times, 90, 0)
	}
	checkFoldOrder(t, sc, []float64{5, 1e6, 3, 70000, 4}, maxFoldSlots, 0)
	checkFoldOrder(t, sc, []float64{5, 1e6, 3, 70000, 4}, maxFoldSlots-0.5, 0)
	checkFoldOrder(t, sc, []float64{5, 1e6, 3}, 90, nan)
	checkFoldOrder(t, sc, nil, 90, 0)

	if _, err := superposeSc(sc, nil, 0, 0); err == nil {
		t.Fatal("non-positive cycle accepted")
	}
}

// FuzzFoldOrder lets the fuzzer pick the floats: four times, each folded
// as itself and from a few cycles either side, so that equal and nearly
// equal phases meet in one slot. (Scalar arguments only: the fuzzer spends
// most of a short run minimising a []byte.)
func FuzzFoldOrder(f *testing.F) {
	f.Add(90.0, 0.0, 0.0, 45.0, 45.5, 135.0)
	f.Add(97.3, 0.0, 1799.0, 3.0, -1e-18, 97.3*4)
	f.Add(60.0, 10.0, 5.0, math.NaN(), 3.0, math.Inf(1))
	f.Add(0.5, -7.0, 1.0, 2.0, 3.0, 3.25)
	sc := &identifyScratch{}
	f.Fuzz(func(t *testing.T, cycle, t0, a, b, c, d float64) {
		if !(cycle > 0) { // rejected before any fold (NaN never reaches one: no estimate is NaN)
			return
		}
		var times []float64
		for _, k := range []float64{0, 1, -2, 17} {
			times = append(times, a+k*cycle, b+k*cycle, c-k*cycle, t0+d+k*cycle)
		}
		checkFoldOrder(t, sc, times, cycle, t0)
	})
}
