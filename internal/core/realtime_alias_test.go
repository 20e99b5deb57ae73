package core

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"taxilight/internal/mapmatch"
)

// aliasFeed is the feed of TestRoundViewsAliasSafely: batch 0 fills the
// first window, batch r+1 is what arrives while round r runs. Every later
// batch is shuffled, a tenth of each is held back into the next one (out
// of order across batches, up to ten minutes late), and approach 0
// arrives at three times the density of the others against a 900-record
// cap, so it overflows about once a round.
func aliasFeed(rounds int) [][]mapmatch.Matched {
	const nKeys = 6
	rng := rand.New(rand.NewSource(29))
	k0 := benchApproachKey(0)
	var held []mapmatch.Matched
	batches := make([][]mapmatch.Matched, rounds+1)
	for b := range batches {
		t0, t1 := 1800+300*float64(b-1), 1800+300*float64(b)
		if b == 0 {
			t0 = 0
		}
		batch := held
		held = nil
		for i := 0; i < nKeys; i++ {
			batch = append(batch, benchRecords(i, t0, t1)...)
		}
		// Approaches 90 and 180 share approach 0's cycle and phase.
		for _, i := range []int{90, 180} {
			for _, m := range benchRecords(i, t0, t1) {
				m.Light, m.Approach = k0.Light, k0.Approach
				batch = append(batch, m)
			}
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		if b > 0 {
			n := len(batch) / 10
			held, batch = batch[:n:n], batch[n:]
		} else {
			// The first window arrives a minute at a time, shuffled within
			// the minute: the capped buffer then holds its newest quarter
			// hour and the trim after a round finds nothing to drop there,
			// whichever side of the next batch it falls on.
			slices.SortStableFunc(batch, func(a, b mapmatch.Matched) int {
				return cmp.Compare(math.Floor(a.T/60), math.Floor(b.T/60))
			})
		}
		batches[b] = batch
	}
	return batches
}

// hashViews fingerprints every observation a round's views cover.
func hashViews(view map[mapmatch.Key][]obs) map[mapmatch.Key]uint64 {
	out := make(map[mapmatch.Key]uint64, len(view))
	for k, ms := range view {
		h := fnv.New64a()
		for i := range ms {
			o := &ms[i]
			fmt.Fprintln(h, o.plate.name, math.Float64bits(o.t), math.Float64bits(o.speed),
				math.Float64bits(o.dist), math.Float64bits(o.pos.X), math.Float64bits(o.pos.Y), o.occupied)
		}
		out[k] = h.Sum64()
	}
	return out
}

// TestRoundViewsAliasSafely drives the aliasing invariant — an array a
// round's view aliases is written only under estMu, or beyond the view's
// end — from outside. Rounds run back to back; the whole of the next
// round's input, late records and an overflow eviction on a viewed key
// included, is ingested by another goroutine strictly between a round's
// snapshot and the end of its identification. Run under -race, a write
// into a range a worker is reading is a reported race; in any mode the
// views must hash the same after identification as at the snapshot, and
// every round must serve exactly what an engine fed the same batches
// between its rounds serves.
func TestRoundViewsAliasSafely(t *testing.T) {
	const rounds = 8
	batches := aliasFeed(rounds)
	newEngine := func() (*Engine, *[]string) {
		cfg := DefaultRealtimeConfig()
		cfg.RoundWorkers = 4
		cfg.Faults.MaxBufferPerKey = 900
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var served []string
		eng.SetRoundObserver(func(st RoundStats) {
			snap := eng.Snapshot()
			keys := make([]mapmatch.Key, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sortKeys(keys)
			line := fmt.Sprintf("at=%v published=%v", st.At, st.Published)
			for _, k := range keys {
				line += fmt.Sprintf(" %+v", snap[k].Result)
			}
			served = append(served, line)
		})
		eng.Ingest(batches[0])
		return eng, &served
	}
	advance := func(eng *Engine, r int) {
		if _, err := eng.Advance(1800 + 300*float64(r)); err != nil {
			t.Fatal(err)
		}
	}

	quiet, want := newEngine()
	for r := 0; r < rounds; r++ {
		advance(quiet, r)
		quiet.Ingest(batches[r+1])
	}

	eng, got := newEngine()
	start, done := make(chan []mapmatch.Matched), make(chan struct{})
	go func() {
		for batch := range start {
			for len(batch) > 0 {
				n := min(64, len(batch))
				eng.Ingest(batch[:n])
				batch = batch[n:]
				runtime.Gosched()
			}
			done <- struct{}{}
		}
	}()
	defer close(start)
	next := 1
	var snapped map[mapmatch.Key]uint64
	var evictedBefore int64
	evictedMidRound, viewed := 0, 0
	viewHook = func(view map[mapmatch.Key][]obs, identified bool) {
		if !identified {
			snapped = hashViews(view)
			evictedBefore = eng.Health().DroppedOverflowRecords
			start <- batches[next]
			next++
			return
		}
		<-done
		if after := hashViews(view); !maps.Equal(snapped, after) {
			t.Errorf("round %d: a view changed under identification:\n at snapshot %v\n afterwards  %v", next-2, snapped, after)
		}
		viewed += len(view)
		if eng.Health().DroppedOverflowRecords > evictedBefore {
			evictedMidRound++
		}
	}
	defer func() { viewHook = nil }()
	for r := 0; r < rounds; r++ {
		advance(eng, r)
	}

	if evictedMidRound < rounds/2 {
		t.Errorf("a viewed key overflowed during %d of %d rounds; the test no longer covers eviction under a view", evictedMidRound, rounds)
	}
	if viewed < rounds*6 {
		t.Errorf("%d views over %d rounds; the rounds were not dense", viewed, rounds)
	}
	if !slices.Equal(*got, *want) {
		for i := range *want {
			if i >= len(*got) || (*got)[i] != (*want)[i] {
				t.Fatalf("round %d served, with ingest running beside it:\n%s\nquiescent:\n%s", i, (*got)[min(i, len(*got)-1)], (*want)[i])
			}
		}
		t.Fatalf("%d rounds served, quiescent engine served %d", len(*got), len(*want))
	}
}
