package core

import (
	"fmt"

	"taxilight/internal/dsp"
)

// Nothing outside the tests calls the code in this file. It is kept
// beside the tests that exercise it until they are retired with it.

// SpeedSeries converts (time, speed) pairs into dsp samples; it is a
// convenience for callers holding parallel slices.
func SpeedSeries(ts, vs []float64) ([]dsp.Sample, error) {
	if len(ts) != len(vs) {
		return nil, fmt.Errorf("core: series length mismatch %d vs %d", len(ts), len(vs))
	}
	out := make([]dsp.Sample, len(ts))
	for i := range ts {
		out[i] = dsp.Sample{T: ts[i], V: vs[i]}
	}
	dsp.SortSamples(out)
	return out, nil
}
