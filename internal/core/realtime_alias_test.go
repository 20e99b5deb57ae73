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
	"strings"
	"testing"

	"taxilight/internal/mapmatch"
)

// aliasFeed is the feed of TestRoundViewsAliasSafely: batch 0 fills the
// first window, batch r+1 is what arrives while round r runs. Every later
// batch is shuffled, a tenth of each is held back into the next one (out
// of order across batches, up to ten minutes late), and approach 0
// arrives at three times the density of the others against a 900-record
// cap, so it overflows about once a round. With rotate set, every taxi
// takes a new plate each five minutes of feed time and every later batch
// brings approach 0 three thousand plates seen once, so each batch mints
// plates and its evictions alone leave more plates without a record than
// the engine has buffered. Without it, sortedKey gets two records a
// second in order, after the rest of each batch: its buffer, always
// sorted, overflows twice a batch and never reaches back to a trim's
// cutoff.
func aliasFeed(rounds int, rotate bool) [][]mapmatch.Matched {
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
		batch, fresh := held, len(held)
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
		if rotate {
			for i := fresh; i < len(batch); i++ {
				batch[i].Plate = fmt.Sprintf("%s/g%d", batch[i].Plate, int(batch[i].T/300))
			}
			for i := 0; i < 3000 && b > 0; i++ {
				batch = append(batch, mapmatch.Matched{
					Plate: fmt.Sprintf("ONCE-%d-%d", b, i), SpeedKMH: 20, DistToStop: 50,
					Light: k0.Light, Approach: k0.Approach, T: t0 + float64(i)/10,
				})
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
		for t := t0; t < t1 && !rotate; t += 0.5 {
			batch = append(batch, mapmatch.Matched{Plate: fmt.Sprintf("S%02d", int(t)%40), SpeedKMH: 20, DistToStop: 50,
				Light: sortedKey.Light, Approach: sortedKey.Approach, T: t})
		}
		batches[b] = batch
	}
	return batches
}

// sortedKey is the approach aliasFeed keeps in order.
var sortedKey = benchApproachKey(7)

// logServed appends, after every round of eng, one line holding the
// round's instant, what it published and everything the engine serves.
func logServed(eng *Engine, served *[]string) {
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
		*served = append(*served, line)
	})
}

// ingestBeside starts a goroutine that ingests each batch sent on start
// 64 records at a time, yielding between chunks, and answers on done. It
// ends when start is closed.
func ingestBeside(eng *Engine) (start chan []mapmatch.Matched, done chan struct{}) {
	start, done = make(chan []mapmatch.Matched), make(chan struct{})
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
	return start, done
}

// hashViews fingerprints every observation a round's views cover.
func hashViews(rm *roundMem) map[mapmatch.Key]uint64 {
	out := make(map[mapmatch.Key]uint64, len(rm.view))
	for k, ms := range rm.view {
		h := fnv.New64a()
		for i := 0; i < ms.n; i++ {
			o := ms.at(i)
			fmt.Fprintln(h, rm.names[o.id()], math.Float64bits(o.t), math.Float64bits(o.speed),
				math.Float64bits(o.dist), math.Float64bits(o.pos.X), math.Float64bits(o.pos.Y), o.occupied())
		}
		out[k] = h.Sum64()
	}
	return out
}

// freeInView reports a page on eng's free list that a view of rm holds.
func freeInView(eng *Engine, rm *roundMem) (mapmatch.Key, bool) {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	free := map[*obsPage]bool{}
	for _, p := range eng.freePages {
		free[p] = true
	}
	for k, v := range rm.view {
		for _, p := range v.pages {
			if free[p] {
				return k, true
			}
		}
	}
	return mapmatch.Key{}, false
}

// TestRoundViewsAliasSafely drives the aliasing invariant — an array a
// round's view aliases is written only under estMu, or beyond the view's
// end — from outside. Rounds run back to back; the whole of the next
// round's input, late records and overflow evictions on two viewed keys
// included — one unsorted, which moves to other pages, one sorted, which
// only leaves its oldest pages — is ingested by another goroutine strictly
// between a round's snapshot and the end of its identification. Run under
// -race, a write into a range a worker is reading is a reported race; in
// any mode the views must hash the same after identification as at the
// snapshot, no page on the free list may be in a view, and every round
// must serve exactly what an engine fed the same batches between its
// rounds serves.
func TestRoundViewsAliasSafely(t *testing.T) {
	const rounds = 8
	batches := aliasFeed(rounds, false)
	newEngine := func() (*Engine, *[]string) {
		cfg := DefaultRealtimeConfig()
		cfg.Pipeline.Workers = 4
		cfg.Faults.MaxBufferPerKey = 900
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var served []string
		logServed(eng, &served)
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
	start, done := ingestBeside(eng)
	defer close(start)
	next := 1
	var snapped map[mapmatch.Key]uint64
	var evictedBefore int64
	evictedMidRound, sortedEvictedMidRound, viewed, freeAtSnapshot := 0, 0, 0, 0
	viewHook = func(rm *roundMem, identified bool) {
		view := rm.view
		if k, bad := freeInView(eng, rm); bad {
			t.Errorf("round %d: a page on the free list is in the view of %v", next-1, k)
		}
		if !identified {
			snapped = hashViews(rm)
			evictedBefore = eng.Health().DroppedOverflowRecords
			eng.mu.RLock()
			if len(eng.freePages) > 0 {
				freeAtSnapshot++
			}
			eng.mu.RUnlock()
			start <- batches[next]
			next++
			return
		}
		<-done
		if after := hashViews(rm); !maps.Equal(snapped, after) {
			t.Errorf("round %d: a view changed under identification:\n at snapshot %v\n afterwards  %v", next-2, snapped, after)
		}
		viewed += len(view)
		if eng.Health().DroppedOverflowRecords > evictedBefore {
			evictedMidRound++
		}
		// The sorted key kept the pages its newest viewed records are on
		// and left the oldest: it was evicted in place, under the view.
		v := view[sortedKey]
		eng.mu.RLock()
		kb := &eng.approaches[sortedKey].buf
		if v.n > 0 && kb.sorted == kb.n && !slices.Contains(kb.pages, v.pages[0]) && slices.Contains(kb.pages, v.pages[len(v.pages)-1]) {
			sortedEvictedMidRound++
		}
		eng.mu.RUnlock()
	}
	defer func() { viewHook = nil }()
	for r := 0; r < rounds; r++ {
		advance(eng, r)
	}

	if evictedMidRound < rounds/2 || sortedEvictedMidRound < rounds/2 {
		t.Errorf("a viewed key overflowed during %d of %d rounds, the sorted one during %d; the test no longer covers eviction under a view",
			evictedMidRound, rounds, sortedEvictedMidRound)
	}
	if freeAtSnapshot < rounds/2 {
		t.Errorf("the free list held pages at %d of %d snapshots; the test no longer covers recycling", freeAtSnapshot, rounds)
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

// TestPlateIDsStableDuringRound drives the plate half of the aliasing
// invariant — an id is freed only under estMu — the way
// TestRoundViewsAliasSafely drives the buffer half. Every taxi changes
// plate each five minutes, so the batch ingested strictly between a
// round's snapshot and the end of its identification mints plates (taking
// freed ids when there are any) and its overflow evictions leave plates
// the round is reading without a buffered record. Under -race a name
// written where a worker reads is a reported race; in any mode every id a
// view holds must still carry the name it had at the snapshot, nothing
// may join the free list before the trim, and every stop's plate and every
// served result must equal a quiescent engine's.
func TestPlateIDsStableDuringRound(t *testing.T) {
	const rounds = 20
	batches := aliasFeed(rounds, true)
	type roundLog struct{ served, stops []string }
	newEngine := func() (*Engine, *roundLog) {
		cfg := DefaultRealtimeConfig()
		cfg.Pipeline.Workers = 4
		cfg.Faults.MaxBufferPerKey = 900
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := &roundLog{}
		logServed(eng, &log.served)
		eng.Ingest(batches[0])
		return eng, log
	}
	// logStops records every stop the round's index holds and checks each
	// against the feed: a taxi's plate names the five minutes it reported in.
	logStops := func(log *roundLog, rm *roundMem) {
		line := ""
		for _, k := range rm.recompute {
			for _, ev := range rm.index.Stops(k) {
				if want := fmt.Sprintf("/g%d", int(ev.Start/300)); !strings.HasSuffix(ev.Plate, want) {
					t.Errorf("stop %+v at %v carries a plate of another generation, want suffix %s", ev, k, want)
				}
				line += fmt.Sprintf(" %v:%+v", k, ev)
			}
		}
		log.stops = append(log.stops, line)
	}
	advance := func(eng *Engine, r int) {
		if _, err := eng.Advance(1800 + 300*float64(r)); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { viewHook = nil }()

	quiet, want := newEngine()
	viewHook = func(rm *roundMem, identified bool) {
		if identified {
			logStops(want, rm)
		}
	}
	for r := 0; r < rounds; r++ {
		advance(quiet, r)
		quiet.Ingest(batches[r+1])
	}

	eng, got := newEngine()
	start, done := ingestBeside(eng)
	defer close(start)
	next := 1
	var freeAtSnapshot []uint32
	var namesAtSnapshot []string
	orphaned, reused, freedByTrim := 0, 0, 0
	viewHook = func(rm *roundMem, identified bool) {
		if !identified {
			eng.mu.RLock()
			freeAtSnapshot = slices.Clone(eng.plates.free)
			namesAtSnapshot = slices.Clone(eng.plates.names)
			eng.mu.RUnlock()
			start <- batches[next]
			next++
			return
		}
		<-done
		logStops(got, rm)
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		pt := &eng.plates
		// Ingest pops the free list and nothing else touches it mid-round.
		if n := len(pt.free); n > len(freeAtSnapshot) || !slices.Equal(pt.free, freeAtSnapshot[:n]) {
			t.Errorf("round %d: an id was freed while the round ran: %d free at the snapshot, %d now, or not the same ones", next-2, len(freeAtSnapshot), n)
		}
		reused += len(freeAtSnapshot) - len(pt.free)
		for _, ms := range rm.view {
			for i := 0; i < ms.n; i++ {
				id := ms.at(i).id()
				if was := namesAtSnapshot[id]; was == "" || rm.names[id] != was || pt.names[id] != was {
					t.Fatalf("round %d: id %d was %q at the snapshot; the round now reads %q and the table holds %q", next-2, id, was, rm.names[id], pt.names[id])
				}
				if pt.refs[id] == 0 {
					orphaned++
				}
			}
		}
	}
	for r := 0; r < rounds; r++ {
		before := len(eng.plates.free) // no ingest between rounds: the test's own goroutine may look
		advance(eng, r)
		if n := len(eng.plates.free); n > before {
			freedByTrim += n - before
		}
	}

	if last := want.stops[len(want.stops)-1]; strings.Count(last, "Plate:") < 5*8 || !strings.Contains(want.served[len(want.served)-1], "Cycle:") {
		t.Errorf("the last round indexed and served too little to compare:\n%s\n%s", last, want.served[len(want.served)-1])
	}
	if orphaned == 0 {
		t.Error("no eviction left a viewed plate without a record; the test no longer covers release under a view")
	}
	if freedByTrim == 0 || reused == 0 {
		t.Errorf("%d ids freed by trims, %d of them taken again mid-round; the test no longer covers reuse", freedByTrim, reused)
	}
	if !slices.Equal(got.stops, want.stops) {
		for i := range want.stops {
			if i >= len(got.stops) || got.stops[i] != want.stops[i] {
				t.Fatalf("round %d indexed stops, with ingest running beside it:\n%s\nquiescent:\n%s", i, got.stops[min(i, len(got.stops)-1)], want.stops[i])
			}
		}
	}
	if !slices.Equal(got.served, want.served) {
		for i := range want.served {
			if i >= len(got.served) || got.served[i] != want.served[i] {
				t.Fatalf("round %d served, with ingest running beside it:\n%s\nquiescent:\n%s", i, got.served[min(i, len(got.served)-1)], want.served[i])
			}
		}
		t.Fatalf("%d rounds served, quiescent engine served %d", len(got.served), len(want.served))
	}
}
