package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestHistoryCorrectsGrossOutlier(t *testing.T) {
	h := NewHistory()
	// Three days of clean 98 s estimates at 09:00.
	nine := 9.0 * 3600
	for day := 0; day < 3; day++ {
		h.Add(float64(day)*86400+nine, 98)
	}
	// Day 4 produces a gross DFT error at the same hour.
	v, corrected := h.Correct(3*86400+nine, 277)
	if !corrected || v != 98 {
		t.Fatalf("Correct = %v, %v; want 98, true", v, corrected)
	}
	// An in-tolerance estimate passes through.
	v, corrected = h.Correct(3*86400+nine, 97.3)
	if corrected || v != 97.3 {
		t.Fatalf("clean estimate altered: %v, %v", v, corrected)
	}
}

func TestHistoryThinSlotsPassThrough(t *testing.T) {
	h := NewHistory()
	h.Add(9*3600, 98)
	h.Add(86400+9*3600, 98) // only two samples, MinSamples = 3
	v, corrected := h.Correct(2*86400+9*3600, 277)
	if corrected || v != 277 {
		t.Fatalf("thin history corrected anyway: %v, %v", v, corrected)
	}
	// Unseen slot: NaN median, no correction.
	if med, n := h.SlotMedian(15 * 3600); n != 0 || !math.IsNaN(med) {
		t.Fatalf("empty slot median = %v, %d", med, n)
	}
}

func TestHistorySlotsRespectTimeOfDay(t *testing.T) {
	h := NewHistory()
	// Peak slot (08:00) runs 150 s; off-peak slot (13:00) runs 90 s.
	for day := 0; day < 4; day++ {
		base := float64(day) * 86400
		h.Add(base+8*3600, 150)
		h.Add(base+13*3600, 90)
	}
	if med, _ := h.SlotMedian(8*3600 + 60); med != 150 {
		t.Fatalf("peak slot median = %v", med)
	}
	if med, _ := h.SlotMedian(13*3600 + 60); med != 90 {
		t.Fatalf("off-peak slot median = %v", med)
	}
	// A 90 s estimate at 08:00 is corrected toward the peak history,
	// not accepted because some other slot knows 90.
	v, corrected := h.Correct(4*86400+8*3600, 90)
	if !corrected || v != 150 {
		t.Fatalf("cross-slot leak: %v, %v", v, corrected)
	}
}

func TestHistoryAddAndCorrectAdaptsToPlanChange(t *testing.T) {
	h := NewHistory()
	nine := 9.0 * 3600
	// Three days at 98 s, then the city re-programs the light to 120 s.
	day := 0
	for ; day < 3; day++ {
		h.AddAndCorrect(float64(day)*86400+nine, 98)
	}
	// The first few 120 s estimates are "corrected" away (suspected
	// outliers)...
	v, corrected := h.AddAndCorrect(float64(day)*86400+nine, 120)
	if !corrected || v != 98 {
		t.Fatalf("first new-plan estimate: %v, %v", v, corrected)
	}
	// ...but raw values keep accumulating, so the median eventually
	// flips and the new plan is accepted.
	for day = 4; day < 10; day++ {
		h.AddAndCorrect(float64(day)*86400+nine, 120)
	}
	v, corrected = h.AddAndCorrect(10*86400+nine, 120)
	if corrected || v != 120 {
		t.Fatalf("history never adapted: %v, %v", v, corrected)
	}
}

func TestHistoryNegativeTimeWraps(t *testing.T) {
	h := NewHistory()
	h.Add(-3600, 98) // 23:00 the day before epoch
	if med, n := h.SlotMedian(23 * 3600); n != 1 || med != 98 {
		t.Fatalf("negative-time slot: %v, %d", med, n)
	}
}

// TestHistorySortedSlots holds the kept-sorted slots to the median they
// replaced: a copy of everything the slot was given, sorted, its middle
// element — NaN and repeated estimates included.
func TestHistorySortedSlots(t *testing.T) {
	h := NewHistory()
	rng := rand.New(rand.NewSource(5))
	given := make([][]float64, len(h.slots))
	for step := 0; step < 6000; step++ {
		at := rng.Float64()*20*86400 - 86400
		slot := h.slotOf(at)
		var cycle float64
		switch rng.Intn(10) {
		case 0:
			cycle = math.NaN()
		case 1, 2: // an estimate the slot already holds
			if len(given[slot]) > 0 {
				cycle = given[slot][rng.Intn(len(given[slot]))]
				break
			}
			fallthrough
		default:
			cycle = 40 + math.Floor(rng.Float64()*2600)/10
		}
		c := append([]float64(nil), given[slot]...)
		sort.Float64s(c)
		wantMed, wantN := math.NaN(), len(c)
		if wantN > 0 {
			wantMed = c[wantN/2]
		}
		if med, n := h.SlotMedian(at); n != wantN || !sameBits(med, wantMed) {
			t.Fatalf("step %d: SlotMedian = %v of %d, copy-and-sort gives %v of %d", step, med, n, wantMed, wantN)
		}
		wantV, wantCorrected := cycle, false
		if wantN >= historyMinSamples && !math.IsNaN(wantMed) && !(math.Abs(cycle-wantMed) <= historyTolerance) {
			wantV, wantCorrected = wantMed, true
		}
		if v, corrected := h.AddAndCorrect(at, cycle); corrected != wantCorrected || !sameBits(v, wantV) {
			t.Fatalf("step %d: AddAndCorrect(%v) = %v, %v; want %v, %v", step, cycle, v, corrected, wantV, wantCorrected)
		}
		given[slot] = append(given[slot], cycle)
	}
}

// TestHistoryAddAndCorrectAllocs: once a slot has room, absorbing an
// estimate allocates nothing — the median is read, not computed.
func TestHistoryAddAndCorrectAllocs(t *testing.T) {
	h := NewHistory()
	const nine = 9 * 3600
	for day := 0; day < 40; day++ {
		h.AddAndCorrect(float64(day)*86400+nine, 90+float64(day%7))
	}
	slot := h.slotOf(nine)
	h.slots[slot] = slices.Grow(h.slots[slot], 300)
	day := 40
	allocs := testing.AllocsPerRun(200, func() {
		h.AddAndCorrect(float64(day)*86400+nine, 90+float64(day%11))
		day++
	})
	if allocs != 0 {
		t.Fatalf("AddAndCorrect allocates %.1f objects per call into a slot with room, want 0", allocs)
	}
}
