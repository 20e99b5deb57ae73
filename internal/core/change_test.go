package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"taxilight/internal/dsp"
	"taxilight/internal/lights"
)

func TestSuperposePreservesPhase(t *testing.T) {
	// Samples at a fixed phase across many cycles must collapse onto the
	// same folded time.
	cycle := 98.0
	var samples []dsp.Sample
	for k := 0; k < 5; k++ {
		samples = append(samples, dsp.Sample{T: 41 + float64(k)*cycle, V: float64(k)})
	}
	folded, err := Superpose(samples, cycle, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range folded {
		if math.Abs(s.T-41) > 1e-9 {
			t.Fatalf("folded time %v, want 41", s.T)
		}
	}
}

func TestSuperposeOffsetAndNegative(t *testing.T) {
	folded, err := Superpose([]dsp.Sample{{T: -3, V: 1}}, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(folded[0].T-97) > 1e-9 {
		t.Fatalf("negative time folded to %v, want 97", folded[0].T)
	}
	folded, err = Superpose([]dsp.Sample{{T: 250, V: 1}}, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(folded[0].T-20) > 1e-9 {
		t.Fatalf("folded = %v, want 20", folded[0].T)
	}
	if _, err := Superpose(nil, 0, 0); err == nil {
		t.Fatal("zero cycle accepted")
	}
}

func TestSuperposeSorted(t *testing.T) {
	samples := []dsp.Sample{{T: 250, V: 1}, {T: 10, V: 2}, {T: 130, V: 3}}
	folded, err := Superpose(samples, 98, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(folded); i++ {
		if folded[i].T < folded[i-1].T {
			t.Fatalf("not sorted: %v", folded)
		}
	}
}

func TestFoldedSpeedCurve(t *testing.T) {
	folded := []dsp.Sample{
		{T: 0.3, V: 10}, {T: 0.8, V: 20}, // both bucket to second 0 -> mean 15
		{T: 2, V: 40},
	}
	curve, err := FoldedSpeedCurve(folded, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("len = %d", len(curve))
	}
	if curve[0] != 15 || curve[2] != 40 {
		t.Fatalf("curve = %v", curve)
	}
	// Seconds 1 and 3 were empty: must be interpolated, not NaN.
	for i, v := range curve {
		if math.IsNaN(v) {
			t.Fatalf("curve[%d] is NaN", i)
		}
	}
	// Second 1 sits between 15 and 40.
	if curve[1] <= 15 || curve[1] >= 40 {
		t.Fatalf("interpolated curve[1] = %v", curve[1])
	}
}

func TestFoldedSpeedCurveErrors(t *testing.T) {
	if _, err := FoldedSpeedCurve(nil, 100); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FoldedSpeedCurve([]dsp.Sample{{T: 0, V: 1}}, 1); err == nil {
		t.Fatal("cycle 1 accepted")
	}
}

func TestFillCircularWrap(t *testing.T) {
	x := []float64{math.NaN(), 10, math.NaN(), math.NaN(), 40, math.NaN()}
	fillCircular(x)
	for i, v := range x {
		if math.IsNaN(v) {
			t.Fatalf("x[%d] still NaN: %v", i, x)
		}
	}
	// x[2], x[3] interpolate 10 -> 40: 20 and 30.
	if math.Abs(x[2]-20) > 1e-9 || math.Abs(x[3]-30) > 1e-9 {
		t.Fatalf("interior fill wrong: %v", x)
	}
	// x[5] and x[0] wrap from 40 back to 10: 30 and 20.
	if math.Abs(x[5]-30) > 1e-9 || math.Abs(x[0]-20) > 1e-9 {
		t.Fatalf("wrap fill wrong: %v", x)
	}
}

func TestIdentifyChangeCleanSignal(t *testing.T) {
	// Fig. 11: cycle 98 s, red 39 s starting at phase 41. Build folded
	// samples whose speed is low exactly during the red interval.
	cycle, red, redStart := 98.0, 39.0, 41.0
	sched := lights.Schedule{Cycle: cycle, Red: red, Offset: redStart}
	rng := rand.New(rand.NewSource(7))
	var folded []dsp.Sample
	for i := 0; i < 400; i++ {
		phase := rng.Float64() * cycle
		var v float64
		if sched.StateAt(phase) == lights.Red {
			v = math.Max(0, 2+rng.NormFloat64()*2)
		} else {
			v = 30 + rng.NormFloat64()*6
		}
		folded = append(folded, dsp.Sample{T: phase, V: v})
	}
	est, err := IdentifyChange(folded, cycle, red)
	if err != nil {
		t.Fatal(err)
	}
	if PhaseError(est.GreenToRed, redStart, cycle) > 6 {
		t.Fatalf("green->red = %v, want ~%v", est.GreenToRed, redStart)
	}
	wantR2G := math.Mod(redStart+red, cycle)
	if PhaseError(est.RedToGreen, wantR2G, cycle) > 6 {
		t.Fatalf("red->green = %v, want ~%v", est.RedToGreen, wantR2G)
	}
	if est.MinWindowMean > 10 {
		t.Fatalf("red-window mean speed %v suspiciously high", est.MinWindowMean)
	}
}

func TestIdentifyChangeSparse(t *testing.T) {
	// Sparser fold (~100 samples over a 106 s cycle) still lands within
	// the paper's reported 6 s for most runs; assert a loose bound on a
	// fixed seed.
	cycle, red, redStart := 106.0, 63.0, 20.0
	sched := lights.Schedule{Cycle: cycle, Red: red, Offset: redStart}
	rng := rand.New(rand.NewSource(8))
	var folded []dsp.Sample
	for i := 0; i < 100; i++ {
		phase := rng.Float64() * cycle
		var v float64
		if sched.StateAt(phase) == lights.Red {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		} else {
			v = 28 + rng.NormFloat64()*8
		}
		folded = append(folded, dsp.Sample{T: phase, V: v})
	}
	est, err := IdentifyChange(folded, cycle, red)
	if err != nil {
		t.Fatal(err)
	}
	if PhaseError(est.GreenToRed, redStart, cycle) > 10 {
		t.Fatalf("green->red = %v, want ~%v", est.GreenToRed, redStart)
	}
}

func TestIdentifyChangeErrors(t *testing.T) {
	folded := []dsp.Sample{{T: 0, V: 1}}
	if _, err := IdentifyChange(folded, 98, 0); err == nil {
		t.Fatal("zero red accepted")
	}
	if _, err := IdentifyChange(folded, 98, 98); err == nil {
		t.Fatal("red == cycle accepted")
	}
	if _, err := IdentifyChange(nil, 98, 39); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("empty fold accepted")
	}
}

func TestPhaseError(t *testing.T) {
	cases := []struct{ a, b, cycle, want float64 }{
		{0, 0, 98, 0},
		{10, 15, 98, 5},
		{95, 2, 98, 5}, // wraps
		{0, 49, 98, 49},
		{0, 60, 98, 38},
	}
	for _, c := range cases {
		if got := PhaseError(c.a, c.b, c.cycle); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PhaseError(%v, %v, %v) = %v, want %v", c.a, c.b, c.cycle, got, c.want)
		}
	}
}

func TestRefineRedAndChange(t *testing.T) {
	// Clean two-level folded signal: refinement must land near the true
	// red and edges even from a coarse guess.
	cycle, red, redStart := 106.0, 63.0, 20.0
	sched := lights.Schedule{Cycle: cycle, Red: red, Offset: redStart}
	rng := rand.New(rand.NewSource(11))
	var folded []dsp.Sample
	for i := 0; i < 500; i++ {
		phase := rng.Float64() * cycle
		var v float64
		if sched.StateAt(phase) == lights.Red {
			v = math.Max(0, 2+rng.NormFloat64()*2)
		} else {
			v = 32 + rng.NormFloat64()*5
		}
		folded = append(folded, dsp.Sample{T: phase, V: v})
	}
	gotRed, est, err := RefineRedAndChange(folded, cycle, red+12, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotRed-red) > 4 {
		t.Fatalf("refined red = %v, want ~%v", gotRed, red)
	}
	if PhaseError(est.GreenToRed, redStart, cycle) > 4 {
		t.Fatalf("green->red = %v, want ~%v", est.GreenToRed, redStart)
	}
	if PhaseError(est.RedToGreen, math.Mod(redStart+red, cycle), cycle) > 4 {
		t.Fatalf("red->green = %v", est.RedToGreen)
	}
}

func TestRefineRedAndChangeErrors(t *testing.T) {
	folded := []dsp.Sample{{T: 0, V: 1}}
	if _, _, err := RefineRedAndChange(folded, 100, 0, 10); err == nil {
		t.Fatal("zero guess accepted")
	}
	if _, _, err := RefineRedAndChange(folded, 100, 100, 10); err == nil {
		t.Fatal("guess == cycle accepted")
	}
	if _, _, err := RefineRedAndChange(folded, 100, 50, -1); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, _, err := RefineRedAndChange(nil, 100, 50, 10); err == nil {
		t.Fatal("empty fold accepted")
	}
}

func TestFoldScorePrefersTrueCycle(t *testing.T) {
	cycle := 98.0
	sched := lights.Schedule{Cycle: cycle, Red: 39}
	rng := rand.New(rand.NewSource(12))
	var samples []dsp.Sample
	for i := 0; i < 600; i++ {
		tt := rng.Float64() * 3600
		v := 30.0 + rng.NormFloat64()*4
		if sched.StateAt(tt) == lights.Red {
			v = math.Max(0, 2+rng.NormFloat64()*2)
		}
		samples = append(samples, dsp.Sample{T: tt, V: v})
	}
	sTrue := FoldScore(samples, cycle, 0)
	for _, wrong := range []float64{49, 70, 131, 196} {
		if s := FoldScore(samples, wrong, 0); s >= sTrue {
			t.Fatalf("FoldScore(%v) = %v >= FoldScore(true) = %v", wrong, s, sTrue)
		}
	}
}
