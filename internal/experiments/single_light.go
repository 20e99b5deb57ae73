package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/lights"
	"taxilight/internal/stats"
)

// syntheticApproach generates irregular speed samples for one approach
// under a known schedule: high speed during green, near-stop during red,
// at the given mean sampling interval — the controlled input the paper's
// single-light figures are drawn from.
func syntheticApproach(rng *rand.Rand, s lights.Schedule, t0, t1, meanInterval float64) []dsp.Sample {
	var out []dsp.Sample
	t := t0 + rng.Float64()*meanInterval
	for t < t1 {
		var v float64
		if s.StateAt(t) == lights.Green {
			v = 35 + rng.NormFloat64()*8
		} else {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		out = append(out, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
		t += meanInterval * (0.5 + rng.Float64())
	}
	return out
}

// Fig6 reproduces the cycle-length identification walk-through: a light
// with ground-truth cycle 98 s observed for one hour; the DFT's dominant
// bin should be ~37 (37 cycles/hour), giving 3600/37 ~ 97 s.
func Fig6(w io.Writer, seed int64) error {
	section(w, "Fig. 6 — cycle length identification by interpolation + DFT")
	const truth = 98.0
	sched := lights.Schedule{Cycle: truth, Red: 39, Offset: 11}
	rng := rand.New(rand.NewSource(seed))
	samples := syntheticApproach(rng, sched, 0, 3600, 20)
	fmt.Fprintf(w, "input: %d irregular samples over 3600 s (mean interval ~20 s)\n", len(samples))

	// Paper's plain argmax (Candidates = 1) and the verified estimator.
	plain := core.DefaultCycleConfig()
	plain.Candidates = 1
	est1, err := core.IdentifyCycle(samples, 0, 3600, plain)
	if err != nil {
		return err
	}
	est2, err := core.IdentifyCycle(samples, 0, 3600, core.DefaultCycleConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ground truth cycle: %.0f s\n", truth)
	fmt.Fprintf(w, "plain DFT argmax (paper's Eq. 2): %.1f s  (bin %d, paper example: 97 s from bin 37)\n",
		est1, int(math.Round(3600/est1)))
	fmt.Fprintf(w, "with fold verification + sub-bin refinement: %.2f s (error %.2f s)\n",
		est2, math.Abs(est2-truth))
	return nil
}

// Fig7 reproduces the intersection-based enhancement: an approach too
// sparse for standalone identification succeeds once the perpendicular
// road's mirrored samples (Eq. 3) are added.
func Fig7(w io.Writer, seed int64) error {
	section(w, "Fig. 7 — intersection-based enhancement on a sparse approach")
	const truth = 98.0
	sched := lights.Schedule{Cycle: truth, Red: 49, Offset: 5}
	cfg := core.DefaultCycleConfig()
	cfg.MinSamples = 6
	trials := 40
	okPlain, okEnh := 0, 0
	for s := int64(0); s < int64(trials); s++ {
		rng := rand.New(rand.NewSource(seed*1000 + s))
		primary := syntheticApproach(rng, sched, 0, 1800, 60) // ~3 samples/min: Fig. 7's sparsity
		perp := syntheticApproach(rng, sched.Opposed(), 0, 1800, 25)
		if est, err := core.IdentifyCycle(primary, 0, 1800, cfg); err == nil && math.Abs(est-truth) <= 5 {
			okPlain++
		}
		if est, err := core.IdentifyCycleEnhanced(primary, perp, 0, 1800, cfg); err == nil && math.Abs(est-truth) <= 5 {
			okEnh++
		}
	}
	fmt.Fprintf(w, "ground truth cycle: %.0f s, 30-minute window, ~3 samples/min on the sparse approach\n", truth)
	fmt.Fprintf(w, "identification within 5 s, sparse approach alone: %d/%d trials\n", okPlain, trials)
	fmt.Fprintf(w, "identification within 5 s, with perpendicular mirroring (Eq. 3): %d/%d trials\n", okEnh, trials)
	return nil
}

// syntheticStopEvents draws red-light stop durations (uniform arrival
// phases) plus a share of passenger-dwell error stops, as in Fig. 9.
func syntheticStopEvents(rng *rand.Rand, red, cycle float64, n int, errShare float64) []core.StopEvent {
	var out []core.StopEvent
	for i := 0; i < n; i++ {
		var d float64
		if rng.Float64() < errShare {
			d = red + rng.Float64()*(1.8*cycle-red)
		} else {
			d = math.Max(2, rng.Float64()*red)
		}
		out = append(out, core.StopEvent{
			Plate: fmt.Sprintf("B%04d", i),
			Start: float64(i) * cycle,
			End:   float64(i)*cycle + d,
		})
	}
	return out
}

// Fig9 reproduces the red-light duration identification of Fig. 9:
// cycle 106 s, ground truth red 63 s, ~8 % error stops, bins one mean
// sample interval (20.14 s) wide.
func Fig9(w io.Writer, seed int64) error {
	section(w, "Fig. 9 — red duration from stop durations (border interval)")
	const cycle, red = 106.0, 63.0
	rng := rand.New(rand.NewSource(seed))
	stops := syntheticStopEvents(rng, red, cycle, 400, 0.08)
	fmt.Fprintf(w, "usable stop events: %d (cycle %v s, truth red %v s, paper's Fig. 9 setup)\n",
		len(core.FilterStops(stops, cycle)), cycle, red)
	est, err := borderIntervalRed(stops, cycle)
	if err != nil {
		return err
	}
	naive := longestStop(stops, cycle)
	ml, err := core.IdentifyRed(stops, cycle, core.DefaultRedConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "naive longest-stop estimate: %.1f s (error %.1f s)\n", naive, math.Abs(naive-red))
	fmt.Fprintf(w, "border-interval estimate:    %.1f s (error %.1f s; paper's ground truth 63 s)\n",
		est, math.Abs(est-red))
	fmt.Fprintf(w, "stop-model likelihood:       %.1f s (error %.1f s; core.IdentifyRed)\n", ml, math.Abs(ml-red))
	return nil
}

// longestStop is the naive red estimate the border interval improves on:
// the longest usable stop.
func longestStop(stops []core.StopEvent, cycle float64) float64 {
	naive := 0.0
	for _, e := range core.FilterStops(stops, cycle) {
		naive = max(naive, e.Duration())
	}
	return naive
}

// borderIntervalRed is the paper's red estimator (Fig. 9): the cycle is
// cut into bins one mean sample interval (20.14 s in the paper's data)
// wide, and a bin is valid when it holds at least a quarter of the
// fullest bin's stops. The rightmost bin of the valid run that starts at
// the first valid bin is the border interval, and red is located inside
// it by the border bin's count relative to the density of the bins
// before it, after subtracting the mean count of the error bins to its
// right as a baseline. The pipeline estimates red with core.IdentifyRed;
// this stays as the figure's reproduction.
func borderIntervalRed(stops []core.StopEvent, cycle float64) (float64, error) {
	const w = 20.14
	usable := core.FilterStops(stops, cycle)
	counts := make([]float64, int(math.Ceil(cycle/w)))
	nbins := len(counts)
	for _, e := range usable {
		counts[min(int(e.Duration()/w), nbins-1)]++
	}
	threshold := 0.25 * slices.Max(counts)
	valid := func(c float64) bool { return c >= threshold && c > 0 }
	first := max(0, slices.IndexFunc(counts, valid))
	border := first
	for border+1 < nbins && valid(counts[first]) && valid(counts[border+1]) {
		border++
	}
	baseline := 0.0
	if border+1 < nbins {
		baseline = stats.Mean(counts[border+1:])
	}
	// meanWithin is the mean duration of the usable stops in [lo, hi),
	// NaN when there are none.
	meanWithin := func(lo, hi float64) float64 {
		var in []float64
		for _, e := range usable {
			if d := e.Duration(); d >= lo && d < hi {
				in = append(in, d)
			}
		}
		return stats.Mean(in)
	}
	var fullSum float64
	for _, c := range counts[:border] {
		fullSum += c
	}
	fullSum -= float64(border) * baseline
	red, limit := 0.0, cycle
	switch {
	case border == 0:
		// All valid mass in one bin: red is twice its mean duration.
		red, limit = 2*meanWithin(0, w), w
	case fullSum <= 0:
		// The mass sits in the border bin with nothing before it: take
		// the bin's mean duration.
		hi := float64(border+1) * w
		if border == nbins-1 {
			hi = math.Inf(1)
		}
		red = meanWithin(float64(border)*w, hi)
	default:
		perBin := fullSum / float64(border)
		validSum := fullSum + math.Max(0, counts[border]-baseline)
		red = w * validSum / perBin
	}
	// Bound the estimate to (0, limit) and at most cycle-1.
	if red >= cycle {
		red = cycle - 1
	}
	if red >= limit {
		red = math.Nextafter(limit, 0)
	}
	if red <= 0 {
		red = 1
	}
	if math.IsNaN(red) {
		return 0, fmt.Errorf("%w: empty border interval", core.ErrInsufficientData)
	}
	return red, nil
}

// Fig10 reproduces data superposition: three consecutive cycles of
// sparse samples folded into one cycle (98 = 39 red + 59 green).
func Fig10(w io.Writer, seed int64) error {
	section(w, "Fig. 10 — data superposition (3 cycles folded into 1)")
	const cycle, red = 98.0, 39.0
	sched := lights.Schedule{Cycle: cycle, Red: red, Offset: 0}
	rng := rand.New(rand.NewSource(seed))
	raw := syntheticApproach(rng, sched, 0, 3*cycle, 15)
	folded, err := core.Superpose(raw, cycle, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d samples over 3 cycles -> %d samples in one folded cycle\n", len(raw), len(folded))
	lowRed, lowGreen := 0, 0
	nRed, nGreen := 0, 0
	for _, s := range folded {
		if sched.StateAt(s.T) == lights.Red {
			nRed++
			if s.V < 15 {
				lowRed++
			}
		} else {
			nGreen++
			if s.V < 15 {
				lowGreen++
			}
		}
	}
	fmt.Fprintf(w, "low-speed share during true red:   %d/%d\n", lowRed, nRed)
	fmt.Fprintf(w, "low-speed share during true green: %d/%d\n", lowGreen, nGreen)
	fmt.Fprintf(w, "(the folded cycle separates red and green, e.g. the paper's 50-80 s red band)\n")
	return nil
}

// Fig11 reproduces the sliding-window signal change identification:
// cycle 98 s, red 39 s; the minimum of the red-length moving average
// marks the red phase (paper: identified 44 s vs ground truth 41 s).
func Fig11(w io.Writer, seed int64) error {
	section(w, "Fig. 11 — signal change via sliding-window minimum")
	const cycle, red, redStart = 98.0, 39.0, 41.0
	sched := lights.Schedule{Cycle: cycle, Red: red, Offset: redStart}
	rng := rand.New(rand.NewSource(seed))
	raw := syntheticApproach(rng, sched, 0, 30*cycle, 20)
	folded, err := core.Superpose(raw, cycle, 0)
	if err != nil {
		return err
	}
	est, err := core.IdentifyChange(folded, cycle, red)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ground truth: green->red at phase %.0f s, red->green at %.0f s\n",
		redStart, math.Mod(redStart+red, cycle))
	fmt.Fprintf(w, "identified:   green->red at phase %.0f s (error %.1f s; paper example: 44 s vs truth 41 s)\n",
		est.GreenToRed, core.PhaseError(est.GreenToRed, redStart, cycle))
	fmt.Fprintf(w, "              red->green at phase %.0f s (error %.1f s)\n",
		est.RedToGreen, core.PhaseError(est.RedToGreen, math.Mod(redStart+red, cycle), cycle))
	fmt.Fprintf(w, "mean speed inside identified red window: %.1f km/h\n", est.MinWindowMean)
	return nil
}
