// Ablation benchmarks for the design choices called out in DESIGN.md
// section 5 and tabulated in EXPERIMENTS.md (run with `go test -run=NONE
// -bench Ablation -benchmem ./internal/experiments/`). Each variant
// reports its mean error via b.ReportMetric (unit "s-err" or "pct"), so
// a single -bench run shows both the cost and the quality of each
// variant.
package experiments_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/experiments"
	"taxilight/internal/lights"
)

// sharedWorld lazily builds the default experiment world once; benches
// iterate over the expensive stage only.
var (
	worldOnce sync.Once
	world     *experiments.World
	worldErr  error
)

func getWorld(b *testing.B) *experiments.World {
	b.Helper()
	worldOnce.Do(func() {
		world, worldErr = experiments.BuildWorld(experiments.DefaultWorldConfig())
	})
	if worldErr != nil {
		b.Fatal(worldErr)
	}
	return world
}

func fig6Samples(meanInterval float64) []dsp.Sample {
	rng := rand.New(rand.NewSource(1))
	sched := lights.Schedule{Cycle: 98, Red: 39, Offset: 11}
	var out []dsp.Sample
	t := rng.Float64() * meanInterval
	for t < 3600 {
		v := 35 + rng.NormFloat64()*8
		if sched.StateAt(t) == lights.Red {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		out = append(out, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
		t += meanInterval * (0.5 + rng.Float64())
	}
	return out
}

func synthApproach(rng *rand.Rand, s lights.Schedule, horizon, meanInterval float64) []dsp.Sample {
	var out []dsp.Sample
	t := rng.Float64() * meanInterval
	for t < horizon {
		v := 35 + rng.NormFloat64()*8
		if s.StateAt(t) == lights.Red {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		out = append(out, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
		t += meanInterval * (0.5 + rng.Float64())
	}
	return out
}

func fig9Stops(n int) []core.StopEvent {
	rng := rand.New(rand.NewSource(3))
	var out []core.StopEvent
	for i := 0; i < n; i++ {
		d := math.Max(2, rng.Float64()*63)
		if rng.Float64() < 0.08 {
			d = 63 + rng.Float64()*(1.8*106-63)
		}
		out = append(out, core.StopEvent{Plate: "B1", Start: float64(i) * 106, End: float64(i)*106 + d})
	}
	return out
}

// BenchmarkAblationCandidates compares the paper's plain DFT argmax
// (Candidates=1) against fold-verified candidate selection.
func BenchmarkAblationCandidates(b *testing.B) {
	w := getWorld(b)
	for _, cands := range []int{1, 6} {
		name := "Plain"
		if cands > 1 {
			name = "FoldVerified"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultPipelineConfig()
			cfg.Cycle.Candidates = cands
			var ok, total int
			for i := 0; i < b.N; i++ {
				res, err := core.RunPipeline(w.Part, 0, w.Horizon, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ok, total = 0, 0
				for key, r := range res {
					if r.Err != nil {
						continue
					}
					truth := w.Net.Node(key.Light).Light.ScheduleFor(key.Approach, w.Horizon/2)
					total++
					if math.Abs(r.Cycle-truth.Cycle) <= 5 {
						ok++
					}
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(ok)/float64(total), "pct-cycle-ok")
			}
		})
	}
}

// BenchmarkAblationRed compares the paper's border-interval red estimator
// with the naive longest-stop baseline and the stop-model likelihood on
// error-contaminated stop data.
func BenchmarkAblationRed(b *testing.B) {
	stops := fig9Stops(400)
	b.Run("BorderInterval", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			last, _ = experiments.BorderIntervalRed(stops, 106)
		}
		b.ReportMetric(math.Abs(last-63), "s-err")
	})
	b.Run("Likelihood", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			last, _ = core.IdentifyRed(stops, 106, core.DefaultRedConfig())
		}
		b.ReportMetric(math.Abs(last-63), "s-err")
	})
	b.Run("NaiveMax", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			last = experiments.LongestStop(stops, 106)
		}
		b.ReportMetric(math.Abs(last-63), "s-err")
	})
}

// BenchmarkAblationSuperposition varies how many cycles are folded into
// one before signal-change identification: more cycles, denser fold,
// lower phase error.
func BenchmarkAblationSuperposition(b *testing.B) {
	sched := lights.Schedule{Cycle: 98, Red: 39, Offset: 41}
	for _, cycles := range []int{3, 10, 30} {
		b.Run(map[int]string{3: "3cycles", 10: "10cycles", 30: "30cycles"}[cycles], func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			raw := synthApproach(rng, sched, float64(cycles)*98, 20)
			var phaseErr float64
			for i := 0; i < b.N; i++ {
				folded, err := core.Superpose(raw, 98, 0)
				if err != nil {
					b.Fatal(err)
				}
				est, err := core.IdentifyChange(folded, 98, 39)
				if err != nil {
					b.Fatal(err)
				}
				phaseErr = core.PhaseError(est.GreenToRed, 41, 98)
			}
			b.ReportMetric(phaseErr, "s-err")
		})
	}
}

// BenchmarkAblationCycleMethod compares the paper's spectral estimator
// with the classical autocorrelation and Lomb-Scargle baselines
// (baselines_test.go) on identical sparse input.
func BenchmarkAblationCycleMethod(b *testing.B) {
	samples := fig6Samples(20)
	b.Run("DFT", func(b *testing.B) {
		cfg := core.DefaultCycleConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			last, _ = core.IdentifyCycle(samples, 0, 3600, cfg)
		}
		b.ReportMetric(math.Abs(last-98), "s-err")
	})
	b.Run("ACF", func(b *testing.B) {
		cfg := core.DefaultCycleConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			last, _ = identifyCycleACF(samples, 0, 3600, cfg)
		}
		b.ReportMetric(math.Abs(last-98), "s-err")
	})
	b.Run("LombScargle", func(b *testing.B) {
		cfg := core.DefaultCycleConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			last, _ = identifyCycleLombScargle(samples, 0, 3600, cfg)
		}
		b.ReportMetric(math.Abs(last-98), "s-err")
	})
}
