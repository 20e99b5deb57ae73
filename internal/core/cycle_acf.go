package core

import (
	"fmt"

	"taxilight/internal/dsp"
)

// IdentifyCycleACF estimates the cycle length by autocorrelation instead
// of the paper's DFT: the interpolated 1 Hz speed signal's dominant
// autocorrelation lag within the plausible band is the cycle. It is the
// classical baseline the spectral method competes against
// (BenchmarkAblationCycleMethod) — time-domain period estimation is what
// velocity-profile approaches like Kerper et al. effectively do.
func IdentifyCycleACF(samples []dsp.Sample, t0, t1 float64, cfg CycleConfig) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	in, err := cycleInputSc(sc, samples, t0, t1, cfg)
	if err != nil {
		return 0, err
	}
	grid, err := resampleSc(sc, in, t0, t1, cfg.Interp)
	if err != nil {
		return 0, err
	}
	maxLag := min(int(cfg.MaxCycle), len(grid)-1)
	if maxLag < int(cfg.MinCycle) {
		return 0, fmt.Errorf("core: window of %d s too short for cycle band [%v, %v]", len(grid), cfg.MinCycle, cfg.MaxCycle)
	}
	acf, err := dsp.Autocorrelation(grid, maxLag)
	if err != nil {
		return 0, err
	}
	lag, err := dsp.DominantLag(acf, int(cfg.MinCycle), maxLag)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return float64(lag), nil
}

// IdentifyCycleLombScargle estimates the cycle length with the
// Lomb-Scargle periodogram evaluated directly on the irregular samples —
// no interpolation step at all. It is the second ablation baseline: the
// paper's interpolate-then-DFT pipeline competes against the estimator
// purpose-built for irregular sampling.
func IdentifyCycleLombScargle(samples []dsp.Sample, t0, t1 float64, cfg CycleConfig) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	in, err := cycleInputSc(sc, samples, t0, t1, cfg)
	if err != nil {
		return 0, err
	}
	// Scan at roughly the DFT's resolution over the same window length.
	step := min(max(cfg.MinCycle*cfg.MinCycle/(t1-t0), 0.25), 2)
	return dsp.LombScarglePeriod(in, cfg.MinCycle, cfg.MaxCycle, step)
}
