package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
	"taxilight/internal/trace"
)

// TestIngestAllocs: a record of a taxi the engine knows, for an approach
// it knows, with a page to fill — room in its last page, or a page a trim
// emptied — costs no allocation; the first record of a new approach costs
// its record, its page list and its first page.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	// Room for every approach and dirty entry the test makes: what is
	// measured is the record, not the growth of the engine's index.
	eng.approaches = make(map[mapmatch.Key]*approach, 2*runs)
	eng.dirty = make([]*approach, 0, 2*runs)
	k := benchApproachKey(0)
	batch := []mapmatch.Matched{{Plate: "B000-0", SpeedKMH: 20, Light: k.Light, Approach: k.Approach, T: 1}}
	eng.Ingest(batch)
	a := eng.approaches[k]
	// The pages the runs fill, as trims would have left them.
	pages := (runs + 2) / pageLen
	a.buf.pages = slices.Grow(a.buf.pages, pages)
	for range pages {
		eng.freePages = append(eng.freePages, new(obsPage))
	}

	if n := testing.AllocsPerRun(runs, func() {
		batch[0].T++
		eng.Ingest(batch)
	}); n != 0 {
		t.Errorf("a known plate on a known approach allocates %.2f objects per record, want 0", n)
	}
	if a.buf.n != runs+2 || len(eng.dirty) != 1 || len(eng.freePages) != 0 {
		t.Fatalf("%d records buffered, %d approaches dirty, %d pages left free: the runs did not ingest", a.buf.n, len(eng.dirty), len(eng.freePages))
	}

	i := 1
	if n := testing.AllocsPerRun(runs, func() {
		k := benchApproachKey(i)
		i++
		batch[0].Light, batch[0].Approach = k.Light, k.Approach
		eng.Ingest(batch)
	}); n > 3 {
		t.Errorf("the first record of a new approach allocates %.2f objects, want at most 3 (its record, its page list and its page)", n)
	}
	if len(eng.approaches) != runs+2 {
		t.Fatalf("%d approaches after %d new ones", len(eng.approaches), runs+1)
	}
}

// TestPublishAllocs: publishing for an approach whose History slot
// already exists allocates nothing — the slot was made with room for a
// day's rounds in it — and feeding its fixed-size Monitor allocates
// nothing either.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const nKeys = 8
	cfg := DefaultRealtimeConfig()
	cfg.Pipeline.Workers = 1
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]mapmatch.Key, nKeys)
	for i := range keys {
		keys[i] = benchApproachKey(i)
		eng.Ingest(benchRecords(i, 0, 1800))
	}
	if _, err := eng.Advance(1800); err != nil { // the first round makes slot 2 and the monitors
		t.Fatal(err)
	}
	results := make([]Result, nKeys)
	for i, k := range keys {
		a := eng.approaches[k]
		if !a.published || a.monitor.State().Held == 0 || a.history.slots[a.history.slotOf(1800)] == nil {
			t.Fatalf("%v: the first round left no estimate, monitor or history slot", k)
		}
		results[i] = a.est
	}
	// Two more rounds of the same 900 s slot: the measured one and
	// AllocsPerRun's warm-up.
	at := 1800.0
	stats := RoundStats{Published: make([]mapmatch.Key, 0, nKeys)}
	publish := func() {
		at += cfg.Interval
		for i := range results {
			results[i].WindowStart, results[i].WindowEnd = at-cfg.Window, at
		}
		stats.Published = stats.Published[:0]
		if ch := eng.publishRound(at, keys, results, true, &stats); len(ch) != 0 {
			t.Fatalf("a steady cycle confirmed changes: %v", ch)
		}
	}
	if n := testing.AllocsPerRun(1, publish); n != 0 {
		t.Errorf("publishing %d approaches into an existing slot and monitor allocates %.1f objects, want 0", nKeys, n)
	}
	for _, k := range keys {
		a := eng.approaches[k]
		if s := a.history.slots[a.history.slotOf(at)]; len(s) != 3 {
			t.Fatalf("%v: slot holds %d estimates, want 3", k, len(s))
		}
		if st := a.monitor.State(); st.Held != 2 || st.Last[1].T != at {
			t.Fatalf("%v: monitor's newest point %+v, want the round at %v", k, st.Last, at)
		}
	}
}

// TestPrimeNeverRewindsAnEstimate: rounds and primes publish through one
// window fence. After a round, a prime of an older window is refused: the
// served answer and the version stay as they were, and no key is reported
// published. A prime of the same window publishes again and bumps the
// version — what a re-prime of an unchanged estimate relies on to
// invalidate a cached snapshot. A newer one publishes, and a later round's
// result, from an older window than the primed one, is refused in turn.
func TestPrimeNeverRewindsAnEstimate(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var last RoundStats
	eng.SetRoundObserver(func(st RoundStats) { last = st })
	k := benchApproachKey(0)
	const at = 1800.0
	eng.Ingest(benchRecords(0, 0, at))
	if err := ignoreChanges(eng.Advance(at)); err != nil {
		t.Fatal(err)
	}
	round, ok := eng.EstimateFor(k)
	if !ok || round.WindowEnd != at {
		t.Fatalf("round at %v published %+v (ok %v)", at, round.Result, ok)
	}
	v := eng.Version()

	published := prime(eng, primedResult(k, at-900, 97))
	if est, _ := eng.EstimateFor(k); est.Result != round.Result {
		t.Fatalf("a prime of window end %v rewound the served estimate to %+v", at-900, est.Result)
	}
	if len(published) != 0 || eng.Version() != v {
		t.Fatalf("refused prime reported %v published and moved the version %d → %d", published, v, eng.Version())
	}

	equal := primedResult(k, at, 97)
	if published := prime(eng, equal); len(published) != 1 || published[0] != k {
		t.Fatalf("equal-window prime reported %v published, want [%v]", published, k)
	}
	if est, _ := eng.EstimateFor(k); est.Result != equal {
		t.Fatalf("equal-window prime serves %+v, want %+v", est.Result, equal)
	}
	if eng.Version() != v+1 {
		t.Fatalf("equal-window prime left the version at %d, want %d", eng.Version(), v+1)
	}

	newer := primedResult(k, at+600, 101)
	if published := prime(eng, newer); len(published) != 1 {
		t.Fatalf("newer prime reported %v published", published)
	}
	eng.Ingest(benchRecords(0, at, at+300))
	if err := ignoreChanges(eng.Advance(at + 300)); err != nil {
		t.Fatal(err)
	}
	if last.At != at+300 || slices.Contains(last.Published, k) {
		t.Fatalf("round at %v (stats at %v) published %v over a primed window end of %v", at+300, last.At, last.Published, at+600)
	}
	if est, _ := eng.EstimateFor(k); est.Result != newer {
		t.Fatalf("round at %v replaced the primed estimate with %+v", at+300, est.Result)
	}
}

// TestThinErrorReadsAsBefore: a key too thin for a stage fails with an
// error that formats only when read, into the exact text the formatted
// error it replaces had, still is ErrInsufficientData, and reaches
// ApproachHealth.LastError unchanged.
func TestThinErrorReadsAsBefore(t *testing.T) {
	cfg := DefaultPipelineConfig()
	sc := &identifyScratch{plans: map[int]*dsp.FFTPlan{}}
	_, err := cycleInputSc(sc, []dsp.Sample{{T: 5, V: 30}, {T: 5, V: 10}, {T: 9, V: 0}}, 0, 1800, cfg.Cycle)
	if want := fmt.Errorf("%w: %d samples after merging, need %d", ErrInsufficientData, 2, cfg.Cycle.MinSamples); err == nil || err.Error() != want.Error() || !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("thin input: %v, want %v", err, want)
	}

	thin, starved := benchApproachKey(0), benchApproachKey(1)
	part := mapmatch.Partition{thin: benchRecords(0, 0, 100), starved: benchRecords(1, 0, 150)[:3]}
	var rm roundMem
	rm.load(part)
	rm.index.build(rm.view, rm.names, cfg.Stops)
	usable := countStopsWithin(rm.index.Stops(thin), maxIdentifiedCycle(cfg.Cycle, 0, 1800))
	old := map[mapmatch.Key]error{
		thin:    fmt.Errorf("red: %w: at most %d usable stops under any cycle, need %d", ErrInsufficientData, usable, cfg.Red.MinStops),
		starved: fmt.Errorf("cycle: %w", fmt.Errorf("%w: %d samples after merging, need %d", ErrInsufficientData, 3, cfg.Cycle.MinSamples)),
	}
	rtcfg := DefaultRealtimeConfig()
	rtcfg.Pipeline = cfg
	eng, err := NewEngine(rtcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range part {
		eng.Ingest(ms)
	}
	if _, err := eng.Advance(1800); err != nil {
		t.Fatal(err)
	}
	for k, want := range old {
		res := identifyOne(rm.view, &rm.index, k, 0, 1800, cfg, sc)
		if _, lazy := res.Err.(*thinError); !lazy || res.Err.Error() != want.Error() || !errors.Is(res.Err, ErrInsufficientData) {
			t.Errorf("%v: identifyOne fails with %#v (%v), want a thinError reading %q", k, res.Err, res.Err, want)
		}
		h, ok := eng.ApproachHealthFor(k)
		if !ok || h.LastError != want.Error() || !errors.Is(eng.approaches[k].health.lastErr, ErrInsufficientData) {
			t.Errorf("%v: LastError %q, want %q", k, h.LastError, want)
		}
	}
}

// TestEngineKeepsScannedPlate: the engine's plate table holds the very
// string a trace.Scanner handed out — short or too long to intern — so
// a plate name exists once between the feed and the engine.
func TestEngineKeepsScannedPlate(t *testing.T) {
	plates := []string{"B001", strings.Repeat("L", 40), "B002", "B001", strings.Repeat("L", 40)}
	var lines []byte
	for i, p := range plates {
		rec := trace.Record{Plate: p, Lon: 114.1, Lat: 22.5, Time: time.Date(2014, 12, 5, 9, 0, i, 0, time.UTC),
			SpeedKMH: 30, GPSOK: true, SIM: "13800000000", Color: "yellow"}
		lines = append(rec.AppendCSV(lines), '\n')
	}
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := benchApproachKey(0)
	kept := map[string]*byte{}
	sc := trace.NewScanner(bytes.NewReader(lines))
	for i := 0; sc.Scan(); i++ {
		rec := sc.Record()
		eng.Ingest([]mapmatch.Matched{{Plate: rec.Plate, SpeedKMH: rec.SpeedKMH, Light: k.Light, Approach: k.Approach, T: float64(i)}})
		if _, seen := kept[rec.Plate]; !seen {
			kept[rec.Plate] = unsafe.StringData(rec.Plate)
		}
		name := eng.plates.names[eng.plates.ids[rec.Plate]]
		if unsafe.StringData(name) != kept[rec.Plate] {
			t.Fatalf("line %d: the engine holds a copy of plate %q, not the scanner's string", i, rec.Plate)
		}
	}
	if sc.Err() != nil || len(kept) != 3 {
		t.Fatalf("scanned %d plates, err %v", len(kept), sc.Err())
	}
}
