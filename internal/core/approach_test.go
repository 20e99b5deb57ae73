package core

import (
	"bytes"
	"cmp"
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
// it knows, with room left in the approach's buffer, costs no allocation;
// the first record of a new approach costs its record and its buffer.
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
	a.buf.ms = slices.Grow(a.buf.ms, 2*runs)

	if n := testing.AllocsPerRun(runs, func() {
		batch[0].T++
		eng.Ingest(batch)
	}); n != 0 {
		t.Errorf("a known plate on a known approach allocates %.2f objects per record, want 0", n)
	}
	if len(a.buf.ms) != runs+2 || len(eng.dirty) != 1 {
		t.Fatalf("%d records buffered, %d approaches dirty: the runs did not ingest", len(a.buf.ms), len(eng.dirty))
	}

	i := 1
	if n := testing.AllocsPerRun(runs, func() {
		k := benchApproachKey(i)
		i++
		batch[0].Light, batch[0].Approach = k.Light, k.Approach
		eng.Ingest(batch)
	}); n > 2 {
		t.Errorf("the first record of a new approach allocates %.2f objects, want at most 2 (its record and its buffer)", n)
	}
	if len(eng.approaches) != runs+2 {
		t.Fatalf("%d approaches after %d new ones", len(eng.approaches), runs+1)
	}
}

// TestPublishAllocs: publishing for an approach whose History slot and
// Monitor already exist allocates nothing for either — the slot was made
// with room for a day's rounds in it, the series with room for hours.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const nKeys = 8
	cfg := DefaultRealtimeConfig()
	cfg.RoundWorkers = 1
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
		if !a.published || a.monitor.cfg.Confirm == 0 || a.history.slots[a.history.slotOf(1800)] == nil {
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
		if n := len(a.monitor.series); n != 3 {
			t.Fatalf("%v: monitor holds %d points, want 3", k, n)
		}
	}
}

// TestAppendPublishedSinceMatchesSnapshotDiff: what the engine hands a
// durable log from its publish versions is, step for step, what diffing a
// full snapshot against the newest WindowEnd persisted per key used to
// give — across rounds that recompute some keys and fail others, idle
// polls, and primes of older and newer estimates.
func TestAppendPublishedSinceMatchesSnapshotDiff(t *testing.T) {
	const nKeys = 9
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	lastPersisted := map[mapmatch.Key]float64{}
	var oldVersion, newVersion uint64
	var delta []Result
	byKey := func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Key.Light, b.Key.Light), cmp.Compare(a.Key.Approach, b.Key.Approach))
	}
	check := func(step string) {
		var want []Result
		if v := eng.Version(); v != oldVersion {
			snap, v := eng.SnapshotVersioned()
			for k, est := range snap {
				if est.WindowEnd > lastPersisted[k] {
					want = append(want, est.Result)
					lastPersisted[k] = est.WindowEnd
				}
			}
			oldVersion = v
		}
		delta, newVersion = eng.AppendPublishedSince(delta[:0], newVersion)
		slices.SortFunc(want, byKey)
		slices.SortFunc(delta, byKey)
		if len(delta) != len(want) {
			t.Fatalf("%s: delta of %d estimates, snapshot diff %d", step, len(delta), len(want))
		}
		for i := range want {
			if delta[i].Key != want[i].Key || delta[i].WindowEnd != want[i].WindowEnd || delta[i].Cycle != want[i].Cycle {
				t.Fatalf("%s: delta[%d] = %v@%v, snapshot diff %v@%v", step, i, delta[i].Key, delta[i].WindowEnd, want[i].Key, want[i].WindowEnd)
			}
		}
	}
	published := 0
	for r := 0; r < 8; r++ {
		at := 1800 + 300*float64(r)
		for i := 0; i < nKeys; i++ {
			switch (i + r) % 3 {
			case 0: // no news: carried
			case 1:
				eng.Ingest(benchRecords(i, at-600, at))
			default: // thin: fails, and keeps failing until quarantined
				eng.Ingest(benchRecords(i, at-600, at)[:3])
			}
		}
		if r == 0 {
			for i := 0; i < nKeys; i++ {
				eng.Ingest(benchRecords(i, 0, 1200))
			}
		}
		check(fmt.Sprintf("before round %d", r))
		if _, err := eng.Advance(at); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d", r))
		published += len(delta)
		check(fmt.Sprintf("idle poll after round %d", r))
		if len(delta) != 0 {
			t.Fatalf("an idle poll after round %d yielded %d estimates", r, len(delta))
		}
		if r%3 == 2 {
			k := benchApproachKey(r % nKeys)
			again, _ := eng.EstimateFor(benchApproachKey((r + 1) % nKeys)) // re-sent as it stands
			eng.Prime(primedResult(k, at-900, 97), primedResult(benchApproachKey(nKeys+r), at+60, 101), again.Result)
			check(fmt.Sprintf("prime after round %d", r))
			published += len(delta)
		}
	}
	if published < 2*nKeys {
		t.Fatalf("only %d estimates persisted over 8 rounds: the test exercises little", published)
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
