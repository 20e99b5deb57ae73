package core

import (
	"fmt"
	"math"

	"taxilight/internal/dsp"
)

// Superpose folds samples from many cycles into a single cycle: each
// sample's time becomes (t - t0) mod cycle. Relative positions within a
// cycle — and therefore the signal change time — are preserved (Fig. 10).
// The result is sorted by folded time.
func Superpose(samples []dsp.Sample, cycle, t0 float64) ([]dsp.Sample, error) {
	if cycle <= 0 {
		return nil, fmt.Errorf("core: non-positive cycle %v", cycle)
	}
	return superposeTo(make([]dsp.Sample, len(samples)), samples, cycle, t0), nil
}

// maxFoldSlots bounds the counting sort's slot table; no signal cycle is
// anywhere near 18 hours, so a longer one takes the comparison sort.
const maxFoldSlots = 1 << 16

// superposeSc is Superpose into the scratch's folded buffer, without a
// comparison sort. The only reader of the fold drops each sample into the
// whole-second slot int(phase), and that slot index is monotone in the
// phase: a stable counting sort on it leaves every sample in its final
// slot range, in input order within a slot, and a stable sort of each
// slot's handful of samples by phase (an insertion sort, at that size)
// finishes the job. The result is the permutation the stable sort by phase
// produces, because for phases that are all ordered that permutation is
// unique. A phase that is NaN or outside the slot table (a NaN or infinite
// time or origin) or a cycle beyond maxFoldSlots takes superposeTo instead.
func superposeSc(sc *identifyScratch, samples []dsp.Sample, cycle, t0 float64) ([]dsp.Sample, error) {
	if cycle <= 0 {
		return nil, fmt.Errorf("core: non-positive cycle %v", cycle)
	}
	sc.needs(len(samples))
	out := grow(sc.folded, len(samples))
	sc.folded = out
	if !(cycle < maxFoldSlots) {
		return superposeTo(out, samples, cycle, t0), nil
	}
	nslots := int(cycle) + 1 // phases lie in [0, cycle]
	sc.needs(nslots + 1)
	tmp := grow(sc.foldTmp, len(samples))
	pos := grow(sc.foldPos, nslots+1)
	sc.foldTmp, sc.foldPos = tmp, pos
	clear(pos)
	for i, s := range samples {
		p := foldPhase(s.T, t0, cycle)
		if !(p >= 0 && p < float64(nslots)) {
			return superposeTo(out, samples, cycle, t0), nil
		}
		tmp[i] = dsp.Sample{T: p, V: s.V}
		pos[int(p)+1]++
	}
	for k := 0; k < nslots; k++ {
		pos[k+1] += pos[k] // pos[k] is now where slot k starts
	}
	for _, s := range tmp {
		k := int(s.T)
		out[pos[k]] = s
		pos[k]++ // pos[k] ends as where slot k ends
	}
	lo := 0
	for _, hi := range pos[:nslots] {
		sortSamplesIfNeeded(out[lo:hi])
		lo = hi
	}
	return out, nil
}

// foldPhase is (t - t0) mod cycle, brought into [0, cycle].
func foldPhase(t, t0, cycle float64) float64 {
	p := dsp.Mod(t-t0, cycle)
	if p < 0 {
		p += cycle
	}
	return p
}

func superposeTo(out []dsp.Sample, samples []dsp.Sample, cycle, t0 float64) []dsp.Sample {
	for i, s := range samples {
		out[i] = dsp.Sample{T: foldPhase(s.T, t0, cycle), V: s.V}
	}
	dsp.SortSamples(out)
	return out
}

// foldedSpeedCurveSc buckets superposed samples into whole-second slots of
// one cycle and fills empty slots by circular linear interpolation,
// producing the length-cycle speed curve the sliding-window step scans.
// The slot accumulators and the curve itself live in scratch buffers; the
// returned slice is owned by the scratch and overwritten by the next call.
func foldedSpeedCurveSc(sc *identifyScratch, folded []dsp.Sample, cycle float64) ([]float64, error) {
	n := int(math.Round(cycle))
	if n < 2 {
		return nil, fmt.Errorf("core: cycle %v too short to fold", cycle)
	}
	if len(folded) == 0 {
		return nil, ErrInsufficientData
	}
	sc.needs(n)
	sums := grow(sc.curveSums, n)
	counts := grow(sc.curveCounts, n)
	sc.curveSums, sc.curveCounts = sums, counts
	for i := 0; i < n; i++ {
		sums[i] = 0
		counts[i] = 0
	}
	for _, s := range folded {
		i := int(s.T)
		if i >= n {
			i = n - 1
		}
		if i < 0 {
			i = 0
		}
		sums[i] += s.V
		counts[i]++
	}
	curve := grow(sc.curve, n)
	sc.curve = curve
	filled := 0
	for i := range curve {
		if counts[i] > 0 {
			curve[i] = sums[i] / float64(counts[i])
			filled++
		} else {
			curve[i] = math.NaN()
		}
	}
	if filled == 0 {
		return nil, ErrInsufficientData
	}
	if filled < n {
		fillCircular(curve)
	}
	return curve, nil
}

// fillCircular replaces NaN runs with linear interpolation between the
// nearest defined neighbours, treating the slice as a ring.
func fillCircular(x []float64) {
	n := len(x)
	// Find any defined index.
	start := -1
	for i, v := range x {
		if !math.IsNaN(v) {
			start = i
			break
		}
	}
	if start < 0 {
		return
	}
	i := start
	for cnt := 0; cnt < n; {
		// advance to the next NaN run beginning after i
		j := (i + 1) % n
		steps := 1
		for math.IsNaN(x[j]) {
			j = (j + 1) % n
			steps++
		}
		// x[i] and x[j] defined; fill in between (steps-1 NaNs).
		if steps > 1 {
			for k := 1; k < steps; k++ {
				frac := float64(k) / float64(steps)
				x[(i+k)%n] = x[i]*(1-frac) + x[j]*frac
			}
		}
		cnt += steps
		i = j
	}
}

// ChangeEstimate is the output of signal-change identification, expressed
// as phase offsets within the folded cycle (seconds after the fold
// origin t0).
type ChangeEstimate struct {
	// GreenToRed is the phase at which the light turns red: the start of
	// the minimum-mean-speed window.
	GreenToRed float64
	// RedToGreen is the phase at which the light turns green
	// (GreenToRed + red, wrapped).
	RedToGreen float64
	// MinWindowMean is the mean speed inside the identified red window,
	// a confidence signal (lower is cleaner).
	MinWindowMean float64
}

// IdentifyChange locates the signal change times within a folded cycle
// using the paper's sliding-window moving average: the window of length
// red with the minimum mean speed is the red phase.
func IdentifyChange(folded []dsp.Sample, cycle, red float64) (ChangeEstimate, error) {
	sc := getScratch()
	defer putScratch(sc)
	return identifyChangeSc(sc, folded, cycle, red)
}

func identifyChangeSc(sc *identifyScratch, folded []dsp.Sample, cycle, red float64) (ChangeEstimate, error) {
	if red <= 0 || red >= cycle {
		return ChangeEstimate{}, fmt.Errorf("core: red %v outside (0, cycle=%v)", red, cycle)
	}
	curve, err := foldedSpeedCurveSc(sc, folded, cycle)
	if err != nil {
		return ChangeEstimate{}, err
	}
	window := int(math.Round(red))
	if window < 1 {
		window = 1
	}
	if window > len(curve) {
		window = len(curve)
	}
	avg, err := dsp.CircularMovingAverageInto(sc.avg, curve, window)
	if err != nil {
		return ChangeEstimate{}, err
	}
	sc.avg = avg
	i := dsp.ArgMin(avg)
	g2r := float64(i)
	r2g := math.Mod(g2r+red, cycle)
	return ChangeEstimate{GreenToRed: g2r, RedToGreen: r2g, MinWindowMean: avg[i]}, nil
}

// PhaseError returns the circular distance between two phases within a
// cycle, in [0, cycle/2]. It is the metric used to score change-time
// identification against ground truth.
func PhaseError(a, b, cycle float64) float64 {
	d := math.Mod(math.Abs(a-b), cycle)
	if d > cycle/2 {
		d = cycle - d
	}
	return d
}
