package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"taxilight/internal/dsp"
	"taxilight/internal/lights"
)

// syntheticSpeed builds irregular speed samples under a known schedule:
// high speed during green, near zero during red, with noise. interval is
// the mean gap between samples.
func syntheticSpeed(rng *rand.Rand, s lights.Schedule, t0, t1, interval float64) []dsp.Sample {
	var out []dsp.Sample
	t := t0 + rng.Float64()*interval
	for t < t1 {
		var v float64
		if s.StateAt(t) == lights.Green {
			v = 35 + rng.NormFloat64()*8
		} else {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		out = append(out, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
		t += interval * (0.5 + rng.Float64())
	}
	return out
}

func TestIdentifyCycleExactTone(t *testing.T) {
	// Fig. 6: a 98 s cycle observed for an hour gives bin 37 and
	// estimate 3600/37 = 97.3 s.
	rng := rand.New(rand.NewSource(1))
	sched := lights.Schedule{Cycle: 98, Red: 39}
	samples := syntheticSpeed(rng, sched, 0, 3600, 6) // dense sampling
	got, err := IdentifyCycle(samples, 0, 3600, DefaultCycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-98) > 3 {
		t.Fatalf("cycle = %v, want ~98", got)
	}
}

func TestIdentifyCycleSparseSampling(t *testing.T) {
	// Paper-realistic sparsity: ~20 s mean interval, single approach.
	rng := rand.New(rand.NewSource(2))
	sched := lights.Schedule{Cycle: 106, Red: 63, Offset: 17}
	samples := syntheticSpeed(rng, sched, 0, 3600, 12)
	got, err := IdentifyCycle(samples, 0, 3600, DefaultCycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-106) > 5 {
		t.Fatalf("cycle = %v, want ~106", got)
	}
}

func TestIdentifyCycleRespectsBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sched := lights.Schedule{Cycle: 98, Red: 39}
	samples := syntheticSpeed(rng, sched, 0, 3600, 8)
	cfg := DefaultCycleConfig()
	cfg.MinCycle = 150 // exclude the true cycle
	got, err := IdentifyCycle(samples, 0, 3600, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got < 150 {
		t.Fatalf("estimate %v below MinCycle", got)
	}
}

func TestIdentifyCycleErrors(t *testing.T) {
	cfg := DefaultCycleConfig()
	if _, err := IdentifyCycle(nil, 0, 3600, cfg); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := IdentifyCycle(nil, 100, 100, cfg); err == nil {
		t.Fatal("empty window accepted")
	}
	bad := cfg
	bad.MinCycle = -1
	if _, err := IdentifyCycle(nil, 0, 3600, bad); err == nil {
		t.Fatal("bad config accepted")
	}
	bad2 := cfg
	bad2.MinSamples = 1
	if _, err := IdentifyCycle(nil, 0, 3600, bad2); err == nil {
		t.Fatal("MinSamples 1 accepted")
	}
	// Window too short for the band.
	short := cfg
	samples := []dsp.Sample{{T: 1, V: 1}, {T: 5, V: 2}, {T: 9, V: 3}, {T: 13, V: 4},
		{T: 17, V: 5}, {T: 21, V: 6}, {T: 25, V: 7}, {T: 29, V: 8}}
	if _, err := IdentifyCycle(samples, 0, 30, short); err == nil {
		t.Fatal("too-short window accepted")
	}
}

func TestIdentifyCycleInterpolationVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sched := lights.Schedule{Cycle: 120, Red: 60}
	samples := syntheticSpeed(rng, sched, 0, 3600, 10)
	for _, kind := range []InterpKind{InterpSpline, InterpLinear, InterpHold} {
		cfg := DefaultCycleConfig()
		cfg.Interp = kind
		got, err := IdentifyCycle(samples, 0, 3600, cfg)
		if err != nil {
			t.Fatalf("interp %v: %v", kind, err)
		}
		if math.Abs(got-120) > 8 {
			t.Errorf("interp %v: cycle = %v, want ~120", kind, got)
		}
	}
}

func TestEnhanceMirrorsPerpendicular(t *testing.T) {
	// Primary has data only at even 40 s marks; perpendicular covers the
	// 20 s marks. After enhancement every mark must be present, and the
	// mirrored values must reflect around the intersection mean.
	var primary, perp []dsp.Sample
	for i := 0; i < 10; i++ {
		primary = append(primary, dsp.Sample{T: float64(i * 40), V: 30})
		perp = append(perp, dsp.Sample{T: float64(i*40 + 20), V: 10})
	}
	out := Enhance(primary, perp)
	if len(out) != 20 {
		t.Fatalf("enhanced samples = %d, want 20", len(out))
	}
	mean := 20.0 // (30*10 + 10*10) / 20
	for _, s := range out {
		if int64(s.T)%40 == 20 {
			want := 2*mean - 10 // mirrored
			if math.Abs(s.V-want) > 1e-9 {
				t.Fatalf("mirrored value at %v = %v, want %v", s.T, s.V, want)
			}
		} else if s.V != 30 {
			t.Fatalf("primary value at %v = %v, want 30", s.T, s.V)
		}
	}
}

func TestEnhanceClampsAtZero(t *testing.T) {
	primary := []dsp.Sample{{T: 0, V: 1}, {T: 100, V: 1}}
	perp := []dsp.Sample{{T: 50, V: 80}} // mirrors far below zero
	out := Enhance(primary, perp)
	for _, s := range out {
		if s.V < 0 {
			t.Fatalf("negative enhanced speed %v", s.V)
		}
	}
}

func TestEnhancePrimaryWins(t *testing.T) {
	primary := []dsp.Sample{{T: 10, V: 30}}
	perp := []dsp.Sample{{T: 10, V: 5}}
	out := Enhance(primary, perp)
	if len(out) != 1 || out[0].V != 30 {
		t.Fatalf("enhanced = %+v, want primary sample only", out)
	}
}

func TestEnhanceEmptyInputs(t *testing.T) {
	if out := Enhance(nil, nil); out != nil {
		t.Fatalf("Enhance(nil, nil) = %v", out)
	}
	p := []dsp.Sample{{T: 1, V: 2}}
	out := Enhance(p, nil)
	if len(out) != 1 || out[0] != p[0] {
		t.Fatalf("Enhance(p, nil) = %v", out)
	}
	out = Enhance(nil, p)
	if len(out) != 1 {
		t.Fatalf("Enhance(nil, p) = %v", out)
	}
}

func TestIdentifyCycleEnhancedBeatsSparse(t *testing.T) {
	// Fig. 7: an approach too sparse on its own succeeds once enhanced
	// with the perpendicular road. Run over many seeds and require
	// enhancement to win more often.
	sched := lights.Schedule{Cycle: 98, Red: 49, Offset: 5}
	perpSched := sched.Opposed()
	cfg := DefaultCycleConfig()
	cfg.MinSamples = 6
	sparseWins, enhancedWins := 0, 0
	trials := 30
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(seed))
		primary := syntheticSpeed(rng, sched, 0, 1800, 60) // ~30 samples/30min
		perp := syntheticSpeed(rng, perpSched, 0, 1800, 25)
		plain, errP := IdentifyCycle(primary, 0, 1800, cfg)
		enh, errE := IdentifyCycleEnhanced(primary, perp, 0, 1800, cfg)
		if errP == nil && math.Abs(plain-98) <= 5 {
			sparseWins++
		}
		if errE == nil && math.Abs(enh-98) <= 5 {
			enhancedWins++
		}
	}
	if enhancedWins <= sparseWins {
		t.Fatalf("enhancement did not help: plain %d/%d vs enhanced %d/%d",
			sparseWins, trials, enhancedWins, trials)
	}
	if enhancedWins < trials/2 {
		t.Fatalf("enhanced accuracy too low: %d/%d", enhancedWins, trials)
	}
}

func BenchmarkIdentifyCycleEnhanced(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sched := lights.Schedule{Cycle: 98, Red: 39}
	primary := syntheticSpeed(rng, sched, 0, 1800, 45)
	perp := syntheticSpeed(rng, sched.Opposed(), 0, 1800, 20)
	cfg := DefaultCycleConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = IdentifyCycleEnhanced(primary, perp, 0, 1800, cfg)
	}
}
