package experiments

import (
	"fmt"
	"math/cmplx"

	"taxilight/internal/dsp"
)

// spectrogram is the short-time Fourier transform magnitude of a signal:
// power[f][k] is the squared magnitude of frequency bin k in frame f.
// It is the time-frequency view of the continuous monitoring problem —
// a pre-programmed dynamic light shows up as a step in the dominant
// frequency track (the Fig. 12 series seen from the frequency domain).
type spectrogram struct {
	// power[frame][bin], bins 0..segLen/2.
	power [][]float64
	// frameStart[frame] is the first sample index of each frame.
	frameStart []int
	// segLen is the analysis window length in samples.
	segLen int
}

// stft computes a Hann-windowed spectrogram with the given segment length
// and hop. The final partial frame is dropped.
func stft(x []float64, segLen, hop int) (*spectrogram, error) {
	if segLen < 4 || segLen > len(x) {
		return nil, fmt.Errorf("experiments: segment length %d outside [4, %d]", segLen, len(x))
	}
	if hop < 1 {
		return nil, fmt.Errorf("experiments: hop %d < 1", hop)
	}
	sg := &spectrogram{segLen: segLen}
	for start := 0; start+segLen <= len(x); start += hop {
		seg := dsp.HannWindow(dsp.Detrend(x[start : start+segLen]))
		spec := dsp.FFTReal(seg)
		row := make([]float64, segLen/2+1)
		for k := range row {
			m := cmplx.Abs(spec[k])
			row[k] = m * m
		}
		sg.power = append(sg.power, row)
		sg.frameStart = append(sg.frameStart, start)
	}
	return sg, nil
}

// dominantPeriodTrack returns, per frame, the period (samples per cycle)
// of the strongest bin whose period lies in [minPeriod, maxPeriod]. A
// frame with no bin in range yields 0.
func (sg *spectrogram) dominantPeriodTrack(minPeriod, maxPeriod float64) ([]float64, error) {
	if minPeriod <= 0 || maxPeriod < minPeriod {
		return nil, fmt.Errorf("experiments: bad period range [%v, %v]", minPeriod, maxPeriod)
	}
	kMin := max(int(float64(sg.segLen)/maxPeriod+0.999), 1)
	kMax := int(float64(sg.segLen) / minPeriod)
	out := make([]float64, len(sg.power))
	for f, row := range sg.power {
		if kMin > kMax || kMax >= len(row) {
			continue
		}
		best := kMin
		for k := kMin; k <= kMax; k++ {
			if row[k] > row[best] {
				best = k
			}
		}
		out[f] = float64(sg.segLen) / float64(best)
	}
	return out, nil
}
