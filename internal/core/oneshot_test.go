package core

import (
	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

// The serving path calls the scratch forms (enhanceSc, foldScoreSc,
// foldedSpeedCurveSc, appendSpeedSamples). The tests call them through
// these one-shot forms, each borrowing its own scratch and returning a
// copy the caller owns.

// Enhance implements the intersection-based enhancement of Eq. 3: the
// primary approach's samples are kept, and every second covered only by
// the perpendicular approach contributes a mirrored sample
// max(0, 2*vMean - vPerp), where vMean is the mean speed over both
// approaches. Perpendicular traffic moves in anti-phase, so the mirrored
// values reinforce the shared periodicity instead of cancelling it.
// The result is sorted with one sample per whole second.
func Enhance(primary, perp []dsp.Sample) []dsp.Sample {
	sc := getScratch()
	defer putScratch(sc)
	out := enhanceSc(sc, primary, perp)
	if len(out) == 0 {
		return nil
	}
	return append([]dsp.Sample(nil), out...)
}

// FoldScore measures how well a candidate cycle length aligns speed
// samples: the fraction of speed variance explained by the fold phase
// (adjusted ANOVA R² over phase bins). Higher is better; it is the
// verification metric behind candidate selection and sub-bin refinement
// and is exported for diagnostics and ablation studies.
func FoldScore(samples []dsp.Sample, cycle, t0 float64) float64 {
	sc := getScratch()
	defer putScratch(sc)
	return foldScoreSc(sc, samples, momentsOf(samples), cycle, t0)
}

// FoldedSpeedCurve buckets superposed samples into whole-second slots of
// one cycle and fills empty slots by circular linear interpolation,
// producing the length-cycle speed curve the sliding-window step scans.
func FoldedSpeedCurve(folded []dsp.Sample, cycle float64) ([]float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	curve, err := foldedSpeedCurveSc(sc, folded, cycle)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), curve...), nil
}

// SpeedSamples converts matched records into (time, speed km/h) samples
// for the frequency-domain stages.
func SpeedSamples(ms []mapmatch.Matched) []dsp.Sample {
	out := make([]dsp.Sample, len(ms))
	for i, m := range ms {
		out[i] = dsp.Sample{T: m.T, V: m.SpeedKMH}
	}
	return out
}
