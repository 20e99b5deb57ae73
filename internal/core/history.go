package core

import (
	"math"
	"slices"

	"taxilight/internal/dsp"
)

// The historical corrector of Section VII: "this traffic light uses
// similar scheduling policy at the same time of different day. This
// observation provides us insight to utilize historical traffic light
// scheduling to correct the identification of current scheduling." Its
// tuning is fixed.
const (
	// historySlotSeconds is the width of the time-of-day slots the history
	// is aggregated into: 30 minutes.
	historySlotSeconds = 1800
	// historyMinSamples is the number of historical estimates a slot needs
	// before it can correct anything.
	historyMinSamples = 3
	// historyTolerance is the largest deviation (seconds) from the
	// historical slot median that is accepted as-is; estimates further
	// away are replaced by the median (they are almost surely gross DFT
	// errors — Fig. 14 shows the estimator is bimodal).
	historyTolerance = 10
	// historySlots is the number of slots in a day.
	historySlots = 86400 / historySlotSeconds
)

// History accumulates cycle-length estimates per time-of-day slot across
// days and corrects new estimates against the slot's running median.
// It is the "historical scheduling" prior of Section VII, built per
// light.
type History struct {
	// slots[i] holds slot i's estimates in ascending order (NaN first, as
	// sort.Float64s has it), so the median is an index, not a sort. A slot
	// is made on first use with room for perSlot estimates.
	slots   [][]float64
	perSlot int
}

// newHistory is an empty History.
func newHistory(perSlot int) History {
	return History{slots: make([][]float64, historySlots), perSlot: perSlot}
}

func (h *History) slotOf(t float64) int {
	day := dsp.Mod(t, 86400)
	if day < 0 {
		day += 86400
	}
	return min(int(day/historySlotSeconds), historySlots-1)
}

// Add records one estimate at absolute time t (seconds since an epoch
// midnight).
func (h *History) Add(t, cycle float64) {
	i := h.slotOf(t)
	s := h.slots[i]
	if s == nil {
		s = make([]float64, 0, h.perSlot)
	}
	at, _ := slices.BinarySearchFunc(s, cycle, func(x, target float64) int {
		// x sorts after target: go left. Never 0, so at is past every equal.
		if target < x || (math.IsNaN(target) && !math.IsNaN(x)) {
			return 1
		}
		return -1
	})
	h.slots[i] = slices.Insert(s, at, cycle)
}

// SlotMedian returns the historical median for the slot containing
// time-of-day t and how many estimates back it.
func (h *History) SlotMedian(t float64) (float64, int) {
	s := h.slots[h.slotOf(t)]
	if len(s) == 0 {
		return math.NaN(), 0
	}
	return s[len(s)/2], len(s)
}

// Correct returns the estimate to report for a fresh measurement at time
// t: the measurement itself when history is thin or agrees, or the slot
// median when the measurement is a gross outlier against an established
// history. corrected reports whether the value was replaced.
func (h *History) Correct(t, cycle float64) (value float64, corrected bool) {
	med, n := h.SlotMedian(t)
	if n < historyMinSamples || math.IsNaN(med) {
		return cycle, false
	}
	if math.Abs(cycle-med) <= historyTolerance {
		return cycle, false
	}
	return med, true
}

// AddAndCorrect is the streaming combination used by monitors: correct
// the fresh estimate against history, then absorb the raw estimate into
// the history (raw, so a genuine plan change accumulates evidence and
// eventually shifts the median).
func (h *History) AddAndCorrect(t, cycle float64) (float64, bool) {
	v, corrected := h.Correct(t, cycle)
	h.Add(t, cycle)
	return v, corrected
}
