package core

import (
	"fmt"
	"math"
	"sort"
)

// StopEvent is one contiguous run of stationary records from a single taxi
// in front of a light: the taxi reported from (approximately) the same
// position from Start to End.
type StopEvent struct {
	Plate string
	// Start and End are the first and last record times of the
	// stationary run, in seconds.
	Start, End float64
	// OccupancyChanged reports whether the passenger flag flipped during
	// the run — the paper's signal that the stop was a pick-up/drop-off
	// rather than a red light, so the event must be discarded.
	OccupancyChanged bool
	// Records is the number of reports in the run.
	Records int
}

// Cadence returns the mean reporting interval observed within the run,
// or 0 for runs of fewer than two records.
func (e StopEvent) Cadence() float64 {
	if e.Records < 2 {
		return 0
	}
	return (e.End - e.Start) / float64(e.Records-1)
}

// CorrectedDuration compensates for sampling truncation: the first record
// of a stationary run lags the true stop start by U(0, cadence) and the
// last one leads the true stop end the same way, so the observed duration
// underestimates the true one by one cadence in expectation.
func (e StopEvent) CorrectedDuration() float64 {
	return e.Duration() + e.Cadence()
}

// Duration returns the observed stop duration in seconds.
func (e StopEvent) Duration() float64 { return e.End - e.Start }

// RedConfig tunes red-light duration identification.
type RedConfig struct {
	// SampleInterval is the histogram bin width in seconds — the mean
	// taxi update interval (20.14 s in the paper's data).
	SampleInterval float64
	// MinStops is the minimum number of usable stop events.
	MinStops int
	// ValidFraction classifies a histogram bin as "valid data" when its
	// count reaches this fraction of the fullest bin; sparser bins are
	// treated as errors (the paper's valid/error classification).
	ValidFraction float64
	// CadenceCorrection adds each run's mean reporting interval back to
	// its observed duration before binning, compensating the systematic
	// truncation of sampled stop runs (see StopEvent.CorrectedDuration).
	CadenceCorrection bool
}

// DefaultRedConfig mirrors the paper's setup.
func DefaultRedConfig() RedConfig {
	return RedConfig{SampleInterval: 20.14, MinStops: 8, ValidFraction: 0.25, CadenceCorrection: true}
}

// Validate checks the configuration.
func (c RedConfig) Validate() error {
	switch {
	case c.SampleInterval <= 0:
		return fmt.Errorf("core: non-positive sample interval %v", c.SampleInterval)
	case c.MinStops < 1:
		return fmt.Errorf("core: MinStops %d < 1", c.MinStops)
	case c.ValidFraction <= 0 || c.ValidFraction >= 1:
		return fmt.Errorf("core: ValidFraction %v outside (0, 1)", c.ValidFraction)
	}
	return nil
}

// FilterStops applies the paper's two error filters: stops whose duration
// exceeds the cycle length are dropped, and stops during which the
// passenger condition changed are dropped. Zero/negative durations
// (single-record runs) are dropped too.
func FilterStops(stops []StopEvent, cycle float64) []StopEvent {
	return appendFilteredStops(make([]StopEvent, 0, len(stops)), stops, cycle)
}

// appendFilteredStops appends the usable stops to dst.
func appendFilteredStops(dst []StopEvent, stops []StopEvent, cycle float64) []StopEvent {
	for _, e := range stops {
		if e.usableWithin(cycle) {
			dst = append(dst, e)
		}
	}
	return dst
}

// usableWithin is the filter of FilterStops for one event.
func (e StopEvent) usableWithin(cycle float64) bool {
	d := e.Duration()
	return !(d <= 0 || d > cycle || e.OccupancyChanged)
}

// countStopsWithin is len(FilterStops(stops, cycle)).
func countStopsWithin(stops []StopEvent, cycle float64) int {
	n := 0
	for i := range stops {
		if stops[i].usableWithin(cycle) {
			n++
		}
	}
	return n
}

// IdentifyRed estimates the red-light duration from stop events given a
// known cycle length, using the border-interval algorithm of Fig. 9: the
// cycle is divided into bins one mean sample interval wide; bins are
// classified valid (dense, left side) or error (sparse, right side); the
// rightmost valid bin is the border interval, and the red duration is
// located inside it by a record-count-weighted average — the border bin's
// net record count, relative to the density of the fully-valid bins,
// tells how far into the bin the valid mass extends. Taxis arrive at a
// red light at uniform phases, so stop durations are uniform on
// (0, red] and this weighting is unbiased; the sparse error counts to the
// right of the border are subtracted as a baseline.
func IdentifyRed(stops []StopEvent, cycle float64, cfg RedConfig) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return identifyRedSc(sc, stops, cycle, cfg)
}

// identifyRedSc is IdentifyRed with the usable-stop list, histogram bins
// and duration list in scratch buffers.
func identifyRedSc(sc *identifyScratch, stops []StopEvent, cycle float64, cfg RedConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cycle <= 0 {
		return 0, fmt.Errorf("core: non-positive cycle %v", cycle)
	}
	sc.needs(len(stops))
	usable := appendFilteredStops(sc.stops[:0], stops, cycle)
	sc.stops = usable
	if len(usable) < cfg.MinStops {
		return 0, fmt.Errorf("%w: %d usable stops, need %d", ErrInsufficientData, len(usable), cfg.MinStops)
	}
	w := cfg.SampleInterval
	nbins := int(math.Ceil(cycle / w))
	sc.needs(nbins)
	counts := grow(sc.redCounts, nbins)
	sc.redCounts = counts
	for i := 0; i < nbins; i++ {
		counts[i] = 0
	}
	durations := sc.redDurations[:0]
	for _, e := range usable {
		d := e.Duration()
		if cfg.CadenceCorrection {
			d = e.CorrectedDuration()
			if d > cycle {
				d = cycle
			}
		}
		i := int(d / w)
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
		durations = append(durations, d)
	}
	sc.redDurations = durations
	maxCount := 0.0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	threshold := cfg.ValidFraction * maxCount
	// Border interval: the last bin of the contiguous valid run that
	// starts at the densest region's left edge. Valid data always sit on
	// the left; a lone dense bin far right (residual passenger dwells)
	// must not capture the border.
	first := 0
	for i, c := range counts {
		if c >= threshold && c > 0 {
			first = i
			break
		}
	}
	border := first
	for i := first; i < nbins; i++ {
		if counts[i] >= threshold && counts[i] > 0 {
			border = i
		} else {
			break
		}
	}
	// Error baseline: mean count of the bins right of the border.
	baseline := 0.0
	if border+1 < nbins {
		for _, c := range counts[border+1:] {
			baseline += c
		}
		baseline /= float64(nbins - border - 1)
	}
	if border == 0 {
		// All valid mass inside one bin: under the uniform-arrival model
		// the red duration is twice the mean valid duration.
		var sum float64
		n := 0
		for _, d := range durations {
			if d < w {
				sum += d
				n++
			}
		}
		if n == 0 {
			return 0, fmt.Errorf("%w: empty border interval", ErrInsufficientData)
		}
		return clampRed(2*sum/float64(n), w, cycle), nil
	}
	// Net valid mass per fully-valid bin (bins 0..border-1) and in total
	// (bins 0..border), baseline-corrected.
	var fullSum float64
	for _, c := range counts[:border] {
		fullSum += c
	}
	fullSum -= float64(border) * baseline
	if fullSum <= 0 {
		// Degenerate shape: the mass sits in the border bin itself with
		// nothing before it (stops all near one duration). Fall back to
		// the record-weighted mean of the border bin.
		var sum float64
		n := 0
		lo, hi := float64(border)*w, float64(border+1)*w
		for _, d := range durations {
			if d >= lo && d < hi || (border == nbins-1 && d >= lo) {
				sum += d
				n++
			}
		}
		if n == 0 {
			return 0, fmt.Errorf("%w: empty border interval", ErrInsufficientData)
		}
		return clampRed(sum/float64(n), cycle, cycle), nil
	}
	perBin := fullSum / float64(border)
	validSum := fullSum + math.Max(0, counts[border]-baseline)
	red := w * validSum / perBin
	return clampRed(red, cycle, cycle), nil
}

// clampRed bounds a red estimate to (0, limit) and at most cycle-1.
func clampRed(red, limit, cycle float64) float64 {
	if red >= cycle {
		red = cycle - 1
	}
	if red >= limit {
		red = math.Nextafter(limit, 0)
	}
	if red <= 0 {
		red = 1
	}
	return red
}

// MaxStopDuration returns the longest usable stop duration, the naive
// estimator the border-interval algorithm improves on (kept for the
// ablation study).
func MaxStopDuration(stops []StopEvent, cycle float64) (float64, error) {
	usable := FilterStops(stops, cycle)
	if len(usable) == 0 {
		return 0, ErrInsufficientData
	}
	best := 0.0
	for _, e := range usable {
		if d := e.Duration(); d > best {
			best = d
		}
	}
	return best, nil
}

// StopDurations extracts the filtered durations, sorted ascending — the
// series plotted in Fig. 9.
func StopDurations(stops []StopEvent, cycle float64) []float64 {
	usable := FilterStops(stops, cycle)
	out := make([]float64, len(usable))
	for i, e := range usable {
		out[i] = e.Duration()
	}
	sort.Float64s(out)
	return out
}
