// Package core implements the paper's contribution: identifying a traffic
// light's real-time scheduling — cycle length, red/green split, signal
// change time, and scheduling changes — from sparse, irregular taxi
// records near the intersection.
//
// The stages mirror Sections V-VII of the paper:
//
//   - Cycle length (Section V): treat nearby taxi speed as a periodic
//     signal, spline-interpolate onto a power-of-two grid spanning the
//     window, DFT, and read the cycle from the dominant frequency bin (bin
//     k of an L-second window is a cycle of L/k); optionally densify a sparse
//     approach by mirroring the perpendicular approach's samples around
//     the intersection mean speed (Eq. 3).
//   - Red duration (Section VI-A): collect per-taxi stop runs in front
//     of the light, filter passenger stops and over-cycle stops, then
//     take the red that maximises the likelihood of every usable run's
//     report count (the paper's border-interval histogram is
//     internal/experiments').
//   - Signal change (Sections VI-B/C): superpose records from many cycles
//     into a single cycle (index mod cycle length), then slide a window of
//     one red duration over the folded speed curve; the window with the
//     minimum mean speed is the red phase, so its start is the
//     green-to-red change point.
//   - Scheduling change (Section VII): re-estimate the cycle every few
//     minutes and run a plateau change-point detector over the series.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"taxilight/internal/dsp"
)

// ErrInsufficientData reports that too few usable samples reached an
// identification stage.
var ErrInsufficientData = errors.New("core: insufficient data")

// thinError is the ErrInsufficientData of a key too thin for a stage, which
// fails every round until quarantined: it formats only when read, into
// fmt.Errorf(stage+"%w: "+detail, ErrInsufficientData, have, need).
type thinError struct {
	stage      string // "cycle: ", "red: ", or "" outside a pipeline
	detail     string // two %d verbs: have, need
	have, need int
}

func (e *thinError) Error() string {
	return e.stage + ErrInsufficientData.Error() + ": " + fmt.Sprintf(e.detail, e.have, e.need)
}

func (e *thinError) Unwrap() error { return ErrInsufficientData }

// CycleConfig tunes cycle-length identification.
type CycleConfig struct {
	// MinCycle and MaxCycle bound the plausible cycle lengths in
	// seconds; the DFT peak search is restricted to this band so traffic
	// drift (very low bins) and sampling noise (very high bins) cannot
	// masquerade as the light's fundamental.
	MinCycle, MaxCycle float64
	// MinSamples is the minimum number of merged input samples.
	MinSamples int
	// Candidates is the number of top DFT peaks verified by folding;
	// 1 reproduces the paper's plain argmax, larger values resolve
	// harmonic and neighbouring-light confusions by checking which
	// candidate cycle actually aligns the raw samples best.
	Candidates int
}

// DefaultCycleConfig matches urban signal practice: cycles between 40 s
// and 300 s.
func DefaultCycleConfig() CycleConfig {
	return CycleConfig{MinCycle: 40, MaxCycle: 300, MinSamples: 8, Candidates: 6}
}

// Validate checks the configuration.
func (c CycleConfig) Validate() error {
	if c.MinCycle <= 0 || c.MaxCycle <= c.MinCycle {
		return fmt.Errorf("core: bad cycle band [%v, %v]", c.MinCycle, c.MaxCycle)
	}
	if c.MinSamples < 4 {
		return fmt.Errorf("core: MinSamples %d too small (need >= 4)", c.MinSamples)
	}
	if c.Candidates < 1 {
		return fmt.Errorf("core: Candidates %d < 1", c.Candidates)
	}
	return nil
}

// IdentifyCycle estimates the traffic-light cycle length from speed
// samples observed near one approach during the window [t0, t1]. Samples
// outside the window are ignored. The returned length is L/k seconds,
// L = t1 − t0, where k is the dominant DFT bin within the configured band.
func IdentifyCycle(samples []dsp.Sample, t0, t1 float64, cfg CycleConfig) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return identifyCycleSc(sc, samples, t0, t1, cfg)
}

// identifyCycleSc is IdentifyCycle on a caller-supplied scratch: every
// intermediate (windowed input, resampling grid, FFT plan, fold bins,
// candidate lists) lives in reused buffers, so the steady-state call
// allocates nothing. It is cycleInputSc, the cheap half that decides
// whether there is enough data at all, then cycleFromSpectrumSc.
func identifyCycleSc(sc *identifyScratch, samples []dsp.Sample, t0, t1 float64, cfg CycleConfig) (float64, error) {
	in, err := cycleInputSc(sc, samples, t0, t1, cfg)
	if err != nil {
		return 0, err
	}
	return cycleFromSpectrumSc(sc, in, t0, t1, cfg)
}

// CycleInput is what the cycle estimator sees of samples in [t0, t1]: the
// windowed, time-ordered, duplicate-merged samples, and their natural
// cubic spline interpolation onto the 1 Hz grid over the whole window,
// clamped to the observed range (the DFT takes the same interpolant at the
// next power of two points spanning the window). Both are the caller's own. It fails where
// IdentifyCycle fails for too little data, so an alternative estimator
// built on it competes with the DFT on the same input.
func CycleInput(samples []dsp.Sample, t0, t1 float64, cfg CycleConfig) ([]dsp.Sample, []float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	in, err := cycleInputSc(sc, samples, t0, t1, cfg)
	if err != nil {
		return nil, nil, err
	}
	grid, err := resampleSc(sc, in, t0, 1, int(t1-t0)+1)
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(in), slices.Clone(grid), nil
}

// cycleInputSc windows, orders and merges the samples into the series the
// spectrum is taken of, and fails when it is too short to have one.
func cycleInputSc(sc *identifyScratch, samples []dsp.Sample, t0, t1 float64, cfg CycleConfig) ([]dsp.Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t1 <= t0 {
		return nil, fmt.Errorf("core: empty window [%v, %v]", t0, t1)
	}
	// The window's grid is needed too when the key turns out too thin to
	// transform: a borrow of thin keys must not drop the round's plan.
	sc.needs(max(len(samples), spectrumPoints(t1-t0)))
	buf := appendWindowed(sc.cycIn[:0], samples, t0, t1)
	sc.cycIn = buf
	sortSamplesIfNeeded(buf)
	in := dsp.MergeDuplicateTimesInPlace(buf)
	if len(in) < cfg.MinSamples {
		return nil, &thinError{detail: "%d samples after merging, need %d", have: len(in), need: cfg.MinSamples}
	}
	return in, nil
}

// spectrumPoints is the length of the grid the spectrum of an L-second
// window is taken of: the smallest power of two ≥ L, so the transform is
// one radix-2 FFT.
func spectrumPoints(L float64) int {
	return dsp.NextPow2(int(math.Ceil(L)))
}

// cycleFromSpectrumSc reads the cycle off the spectrum of a series
// cycleInputSc accepted: resample, transform, fold-score the strongest
// bins, refine. The interpolant is sampled at P = spectrumPoints(L)
// points L/P apart, so bin k is k cycles per window whatever P is.
func cycleFromSpectrumSc(sc *identifyScratch, in []dsp.Sample, t0, t1 float64, cfg CycleConfig) (float64, error) {
	L := t1 - t0
	P := spectrumPoints(L)
	// Bins within the plausible cycle band: cycle = L/k, so
	// k in [L/MaxCycle, L/MinCycle].
	kMin := max(int(math.Ceil(L/cfg.MaxCycle)), 1)
	kMax := min(int(math.Floor(L/cfg.MinCycle)), P/2)
	if kMin > kMax {
		return 0, fmt.Errorf("core: window of %v s too short for cycle band [%v, %v]", L, cfg.MinCycle, cfg.MaxCycle)
	}
	grid, err := resampleSc(sc, in, t0, L/float64(P), P)
	if err != nil {
		return 0, err
	}
	dsp.DetrendInPlace(grid)
	plan, err := sc.plan(P)
	if err != nil {
		return 0, err
	}
	mags, err := plan.MagnitudesReal(grid)
	if err != nil {
		return 0, err
	}
	if cfg.Candidates == 1 {
		best, bestMag := kMin, mags[kMin]
		for k := kMin; k <= kMax; k++ {
			if mags[k] > bestMag {
				best, bestMag = k, mags[k]
			}
		}
		return L / float64(best), nil
	}
	// Take the strongest bins as candidate cycles and keep the one whose
	// fold explains the most speed variance. The plain argmax can lock
	// onto a harmonic of the light or onto a neighbouring light's
	// discharge platoons; folding the raw samples at each candidate and
	// scoring the alignment disambiguates cheaply.
	peaks := sc.peaks[:0]
	for k := kMin; k <= kMax; k++ {
		peaks = append(peaks, specPeak{k, mags[k]})
	}
	sc.peaks = peaks
	// Strongest first; the comparator is the three-way form of `>` (not
	// cmp.Compare, which orders NaN differently).
	slices.SortFunc(peaks, func(a, b specPeak) int {
		switch {
		case a.mag > b.mag:
			return -1
		case b.mag > a.mag:
			return 1
		}
		return 0
	})
	if len(peaks) > cfg.Candidates {
		peaks = peaks[:cfg.Candidates]
	}
	cands := sc.cands[:0]
	mo := momentsOf(in)
	bestCycle, bestScore := L/float64(peaks[0].k), math.Inf(-1)
	for _, p := range peaks {
		cycle := L / float64(p.k)
		score := foldScoreSc(sc, in, mo, cycle, t0)
		cands = append(cands, scoredCand{cycle, score})
		if score > bestScore {
			bestScore, bestCycle = score, cycle
		}
	}
	sc.cands = cands
	// Harmonic tie-break: folding at an integer multiple of the true
	// cycle explains the same variance (every phase bin of the short
	// fold maps onto bins of the long fold with identical means), so the
	// two scores differ only by noise. When a candidate near
	// bestCycle/2 or bestCycle/3 scores within a small margin of the
	// best, prefer the shorter — the true fundamental.
	margin := math.Max(0.01, 0.2*math.Abs(bestScore))
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			ratio := bestCycle / c.cycle
			isHarm := (ratio > 1.9 && ratio < 2.1) || (ratio > 2.85 && ratio < 3.15)
			if isHarm && c.score >= bestScore-margin {
				bestCycle, bestScore = c.cycle, c.score
				changed = true
			}
		}
	}
	return refineCycleSc(sc, in, mo, bestCycle, t0, L), nil
}

// sortSamplesIfNeeded stable-sorts s by time unless it is already
// non-decreasing. Pipeline inputs are window slices of time-sorted
// buffers, so the common case is a cheap linear scan with no sort
// allocation; skipping a stable sort of sorted input is an identity.
func sortSamplesIfNeeded(s []dsp.Sample) {
	for i := 1; i < len(s); i++ {
		if s[i].T < s[i-1].T {
			dsp.SortSamples(s)
			return
		}
	}
}

// refineCycleSc sharpens a DFT-bin cycle estimate by local fold-score
// search. Adjacent DFT bins are cycle²/T apart (~2.6 s for a 97 s cycle
// over an hour), and even a 0.3 s cycle error drifts the fold phase by
// ~11 s across the window, smearing the downstream red/phase stages; the
// grid search recovers sub-bin precision the spectrum cannot express.
//
// The search runs one bin spacing either side, so what it returns may lie
// past the band the bin came from; maxIdentifiedCycle is its ceiling.
func refineCycleSc(sc *identifyScratch, in []dsp.Sample, mo foldMoments, cycle, t0, windowLen float64) float64 {
	spacing := cycle * cycle / windowLen
	lo, hi := cycle-spacing, cycle+spacing
	step := spacing / 25
	if step <= 0 {
		return cycle
	}
	best, bestScore := cycle, math.Inf(-1)
	for c := lo; c <= hi; c += step {
		if s := foldScoreSc(sc, in, mo, c, t0); s > bestScore {
			bestScore, best = s, c
		}
	}
	return best
}

// maxIdentifiedCycle bounds every cycle identifyCycleSc can return for the
// window [t0, t1]: a bin's cycle is at most MaxCycle and refinement adds
// at most cycle²/L. +Inf when the window is empty.
func maxIdentifiedCycle(cfg CycleConfig, t0, t1 float64) float64 {
	L := t1 - t0
	if !(L > 0) {
		return math.Inf(1)
	}
	return cfg.MaxCycle + cfg.MaxCycle*cfg.MaxCycle/L
}

// foldMoments holds what every fold score of one sample set shares: the
// mean speed and the total sum of squares about it. One identification
// scores the same samples at 57 cycles (six candidates, 51 refinement
// steps), so the caller computes the moments once with momentsOf and
// hands them to each score. It is a value, valid for exactly the slice
// contents it was computed from — scratch buffers recur at the same
// address and length, so nothing may cache it by pointer.
type foldMoments struct {
	mean, ssTotal float64
}

func momentsOf(samples []dsp.Sample) foldMoments {
	var mo foldMoments
	if len(samples) == 0 {
		return mo
	}
	for _, s := range samples {
		mo.mean += s.V
	}
	mo.mean /= float64(len(samples))
	for _, s := range samples {
		d := s.V - mo.mean
		mo.ssTotal += d * d
	}
	return mo
}

// foldScoreSc measures how well a candidate cycle aligns the raw samples:
// the fraction of speed variance explained by the fold phase (ANOVA R²,
// adjusted for the number of phase bins so longer candidates are not
// rewarded for overfitting). mo must be momentsOf(samples). Accumulators
// live in the scratch, and each sample's phase bin is memoised in the
// first pass so the second pass skips the reduction.
func foldScoreSc(sc *identifyScratch, samples []dsp.Sample, mo foldMoments, cycle, t0 float64) float64 {
	n := len(samples)
	if n < 4 || cycle <= 0 || mo.ssTotal == 0 {
		return math.Inf(-1)
	}
	binW := cycle / 40
	if binW < 2 {
		binW = 2
	}
	nb := int(math.Ceil(cycle / binW))
	if nb < 2 {
		return math.Inf(-1)
	}
	sc.needs(max(n, nb))
	sums := grow(sc.foldSums, nb)
	counts := grow(sc.foldCounts, nb)
	bins := grow(sc.foldBins, n)
	sc.foldSums, sc.foldCounts, sc.foldBins = sums, counts, bins
	for i := 0; i < nb; i++ {
		sums[i] = 0
		counts[i] = 0
	}
	for i, s := range samples {
		b := int(foldPhase(s.T, t0, cycle) / binW)
		if b >= nb {
			b = nb - 1
		}
		bins[i] = int32(b)
		sums[b] += s.V
		counts[b]++
	}
	used := 0
	for b := 0; b < nb; b++ {
		if counts[b] > 0 {
			used++
			sums[b] /= counts[b] // the bin's mean: divided once, not per sample
		}
	}
	var ssWithin float64
	for i, s := range samples {
		d := s.V - sums[bins[i]]
		ssWithin += d * d
	}
	r2 := 1 - ssWithin/mo.ssTotal
	if n <= used+1 {
		return math.Inf(-1)
	}
	// Adjusted R² penalises folds with many effective bins.
	return 1 - (1-r2)*float64(n-1)/float64(n-used)
}

// resampleSc interpolates in by the paper's natural cubic spline onto the
// scratch's grid of n points t0 + i·dt, clamped to the observed range.
func resampleSc(sc *identifyScratch, in []dsp.Sample, t0, dt float64, n int) ([]float64, error) {
	grid, err := sc.resampler.SplineGrid(in, t0, dt, n)
	if err == nil {
		clampToObserved(grid, in)
	}
	return grid, err
}

// clampToObserved limits interpolated grid values to the observed sample
// range padded by half its span. The paper tolerates mildly negative
// interpolated speeds (they do not move the fundamental), but a natural
// spline across a long data gap can overshoot by orders of magnitude and
// flood the spectrum with broadband energy that buries the light's peak;
// clamping removes the blow-ups while preserving the periodic structure.
func clampToObserved(grid []float64, samples []dsp.Sample) {
	if len(samples) == 0 {
		return
	}
	lo, hi := samples[0].V, samples[0].V
	for _, s := range samples[1:] {
		if s.V < lo {
			lo = s.V
		}
		if s.V > hi {
			hi = s.V
		}
	}
	margin := (hi - lo) / 2
	if margin == 0 {
		margin = 1
	}
	min, max := lo-margin, hi+margin
	for i, v := range grid {
		if v < min {
			grid[i] = min
		} else if v > max {
			grid[i] = max
		}
	}
}

// appendWindowed appends the samples with t0 <= T <= t1 to dst.
func appendWindowed(dst []dsp.Sample, samples []dsp.Sample, t0, t1 float64) []dsp.Sample {
	for _, s := range samples {
		if s.T >= t0 && s.T <= t1 {
			dst = append(dst, s)
		}
	}
	return dst
}

// enhanceSc implements the intersection-based enhancement of Eq. 3: the
// primary approach's samples are kept, and every second covered only by
// the perpendicular approach contributes a mirrored sample
// max(0, 2*vMean - vPerp), where vMean is the mean speed over both
// approaches. Perpendicular traffic moves in anti-phase, so the mirrored
// values reinforce the shared periodicity instead of cancelling it. The
// result is sorted with one sample per whole second.
//
// It works in scratch buffers: the two approach series are merged in place
// and combined with a single two-pointer pass instead of copying each
// twice and deduplicating through a map. Merged series are strictly
// increasing in whole-second time, so one ordered walk emits the primary
// sample on a shared second and the mirrored perpendicular sample
// otherwise — the same set, in the same sorted order, as the map-based
// construction. The returned slice is owned by the scratch.
func enhanceSc(sc *identifyScratch, primary, perp []dsp.Sample) []dsp.Sample {
	sc.needs(len(primary) + len(perp))
	pbuf := append(sc.enhanced[:0], primary...)
	sc.enhanced = pbuf
	sortSamplesIfNeeded(pbuf)
	p := dsp.MergeDuplicateTimesInPlace(pbuf)
	if len(perp) == 0 {
		return p
	}
	var sum float64
	for _, s := range primary {
		sum += s.V
	}
	for _, s := range perp {
		sum += s.V
	}
	mean := sum / float64(len(primary)+len(perp))

	qbuf := append(sc.perpMrg[:0], perp...)
	sc.perpMrg = qbuf
	sortSamplesIfNeeded(qbuf)
	q := dsp.MergeDuplicateTimesInPlace(qbuf)

	out := sc.enhOut[:0]
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		switch {
		case p[i].T < q[j].T:
			out = append(out, p[i])
			i++
		case p[i].T > q[j].T:
			out = append(out, dsp.Sample{T: q[j].T, V: math.Max(0, 2*mean-q[j].V)})
			j++
		default: // same second: the primary approach wins
			out = append(out, p[i])
			i++
			j++
		}
	}
	out = append(out, p[i:]...)
	for ; j < len(q); j++ {
		out = append(out, dsp.Sample{T: q[j].T, V: math.Max(0, 2*mean-q[j].V)})
	}
	sc.enhOut = out
	return out
}

// IdentifyCycleEnhanced runs IdentifyCycle on the enhancement of the
// primary approach with its perpendicular neighbour.
func IdentifyCycleEnhanced(primary, perp []dsp.Sample, t0, t1 float64, cfg CycleConfig) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return identifyCycleSc(sc, enhanceSc(sc, primary, perp), t0, t1, cfg)
}
