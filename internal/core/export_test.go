package core

import (
	"fmt"
	"math"
	"sort"
)

// monitorMedianWindow is the size of Monitor's running-median prefilter,
// which holds the last two points for it.
const monitorMedianWindow = 3

// DetectSchedulingChanges is the batch form of Monitor and the oracle
// TestMonitorIncrementalMatchesBatch compares Feed against. It scans a
// chronological cycle-length series for sustained plateau shifts. The
// series is median-prefiltered, then a change is declared when
// monitorConfirm consecutive estimates all deviate from the current
// plateau by more than monitorTolerance while agreeing with each other
// within it.
func DetectSchedulingChanges(series []CyclePoint) ([]SchedulingChange, error) {
	if len(series) == 0 {
		return nil, nil
	}
	for i := 1; i < len(series); i++ {
		if series[i].T < series[i-1].T {
			return nil, fmt.Errorf("core: series not chronological at %d", i)
		}
	}
	return scanFiltered(series, MedianFilter(cycles(series), monitorMedianWindow)), nil
}

// finalChanges is what DetectSchedulingChanges confirms before the newest
// point of a chronological series, whose median window the next point may
// still move: the changes a Monitor fed the series has confirmed for good.
func finalChanges(series []CyclePoint) []SchedulingChange {
	vals := MedianFilter(cycles(series), monitorMedianWindow)
	return scanFiltered(series, vals[:max(len(vals)-1, 0)])
}

func cycles(series []CyclePoint) []float64 {
	vals := make([]float64, len(series))
	for i, p := range series {
		vals[i] = p.Cycle
	}
	return vals
}

// scanFiltered is the plateau scan over vals, the filtered cycles of the
// first len(vals) points of series.
func scanFiltered(series []CyclePoint, vals []float64) []SchedulingChange {
	if len(vals) == 0 {
		return nil
	}
	var changes []SchedulingChange
	plateau := vals[0]
	run := 0       // consecutive deviating estimates
	runStart := -1 // index of the first estimate of the run
	for i := 1; i < len(vals); i++ {
		if math.Abs(vals[i]-plateau) <= monitorTolerance {
			run = 0
			runStart = -1
			continue
		}
		// Deviating. Does it continue the current run (agree with the
		// run's first value)?
		if run > 0 && math.Abs(vals[i]-vals[runStart]) > monitorTolerance {
			// A different deviation: restart the run here.
			run = 0
		}
		if run == 0 {
			runStart = i
		}
		run++
		if run >= monitorConfirm {
			newPlateau := medianOf(vals[runStart : runStart+run])
			changes = append(changes, SchedulingChange{
				T:    series[runStart].T,
				From: plateau,
				To:   newPlateau,
			})
			plateau = newPlateau
			run = 0
			runStart = -1
		}
	}
	return changes
}

// MedianFilter returns the running median of xs with the given odd window,
// shrinking the window at the edges. It is the outlier prefilter used
// before change-point detection.
func MedianFilter(xs []float64, window int) []float64 {
	if window <= 1 || len(xs) == 0 {
		return append([]float64(nil), xs...)
	}
	half := window / 2
	out := make([]float64, len(xs))
	buf := make([]float64, 0, window)
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		buf = append(buf[:0], xs[lo:hi+1]...)
		sort.Float64s(buf)
		out[i] = buf[len(buf)/2]
	}
	return out
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
