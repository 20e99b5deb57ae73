package core

import (
	"testing"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

func stateKey(light int, app lights.Approach) mapmatch.Key {
	return mapmatch.Key{Light: roadnet.NodeID(light), Approach: app}
}

func primedResult(k mapmatch.Key, windowEnd, cycle float64) Result {
	return Result{
		Key:             k,
		Cycle:           cycle,
		Red:             cycle * 0.45,
		Green:           cycle * 0.55,
		GreenToRedPhase: 10,
		RedToGreenPhase: 10 + cycle*0.45,
		WindowStart:     windowEnd - 1800,
		WindowEnd:       windowEnd,
		Records:         250,
		Stops:           18,
		Quality:         0.4,
	}
}

// TestPrimePublishSnapshotRoundTrip is the satellite round-trip test:
// results primed into an engine must come back from Snapshot exactly,
// and exporting + restoring into a second engine must preserve them.
func TestPrimePublishSnapshotRoundTrip(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	k1 := stateKey(1, lights.NorthSouth)
	k2 := stateKey(1, lights.EastWest)
	r1 := primedResult(k1, 1800, 120)
	r2 := primedResult(k2, 2100, 90)
	eng.Prime(r1, r2)

	snap := eng.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d estimates, want 2", len(snap))
	}
	if snap[k1].Result != r1 || snap[k2].Result != r2 {
		t.Fatalf("primed results mutated in snapshot:\n got %+v / %+v\nwant %+v / %+v",
			snap[k1].Result, snap[k2].Result, r1, r2)
	}

	// Export → restore into a fresh engine → identical snapshot content.
	st := eng.ExportState()
	if st.Approaches[k1].Result != r1 {
		t.Fatalf("exported state mutated result: %+v", st.Approaches[k1].Result)
	}
	eng2, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if n := eng2.RestoreState(st); n != 2 {
		t.Fatalf("RestoreState restored %d approaches, want 2", n)
	}
	snap2 := eng2.Snapshot()
	if len(snap2) != len(snap) {
		t.Fatalf("restored snapshot has %d estimates, want %d", len(snap2), len(snap))
	}
	for k, est := range snap {
		got, ok := snap2[k]
		if !ok {
			t.Fatalf("restored snapshot missing %v", k)
		}
		if got.Result != est.Result {
			t.Fatalf("restored result for %v differs:\n got %+v\nwant %+v", k, got.Result, est.Result)
		}
	}
	// The restored engine's clock moved forward to the exported clock,
	// so ages (and thus health states) match too.
	if eng2.Now() != eng.Now() {
		t.Fatalf("restored clock %v, want %v", eng2.Now(), eng.Now())
	}
}

// TestRestoreStateSkipsBadResults mirrors Prime's contract.
func TestRestoreStateSkipsBadResults(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	k := stateKey(2, lights.NorthSouth)
	bad := primedResult(k, 1800, 0) // non-positive cycle
	st := EngineState{Now: 1800, Approaches: map[mapmatch.Key]ApproachState{k: {Result: bad}}}
	if n := eng.RestoreState(st); n != 0 {
		t.Fatalf("RestoreState accepted %d bad results", n)
	}
	if len(eng.Snapshot()) != 0 {
		t.Fatal("bad result was published")
	}
	// Clock never moves backwards on restore.
	if err := ignoreChanges(eng.Advance(5000)); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	eng.RestoreState(EngineState{Now: 100})
	if eng.Now() != 5000 {
		t.Fatalf("restore moved the clock backwards to %v", eng.Now())
	}
}

func ignoreChanges(_ []KeyedChange, err error) error { return err }

// TestRestoreMonitorNoReEmit proves a restored monitor does not
// re-announce changes already confirmed before the restart, but still
// detects changes that happen afterwards.
func TestRestoreMonitorNoReEmit(t *testing.T) {
	cfg := DefaultMonitorConfig()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	// Plateau at 100 s, then a confirmed switch to 130 s.
	var emitted int
	at := 0.0
	feed := func(cycle float64, n int) {
		for i := 0; i < n; i++ {
			at += 300
			emitted += len(mon.Feed(CyclePoint{T: at, Cycle: cycle}))
		}
	}
	feed(100, 6)
	feed(130, 6)
	if emitted == 0 {
		t.Fatal("setup: no change confirmed before restore")
	}

	restored, err := RestoreMonitor(cfg, mon.Series())
	if err != nil {
		t.Fatalf("RestoreMonitor: %v", err)
	}
	// Continuing the 130 s plateau must re-announce nothing.
	for i := 0; i < 4; i++ {
		at += 300
		if ch := restored.Feed(CyclePoint{T: at, Cycle: 130}); len(ch) != 0 {
			t.Fatalf("restored monitor re-emitted %+v", ch)
		}
	}
	// A genuine new switch must still be detected.
	var fresh []SchedulingChange
	for i := 0; i < 6; i++ {
		at += 300
		fresh = append(fresh, restored.Feed(CyclePoint{T: at, Cycle: 80})...)
	}
	if len(fresh) != 1 {
		t.Fatalf("restored monitor confirmed %d new changes, want 1", len(fresh))
	}
	if fresh[0].From != 130 || fresh[0].To != 80 {
		t.Fatalf("new change = %+v, want 130 -> 80", fresh[0])
	}
}

// TestRestoreStateDropsFutureMonitorPoints: a checkpoint whose monitor
// series runs ahead of its own clock (corrupt, or forged) must not arm a
// panic for the first round — publishRound feeds the monitor at the
// round's time, under e.mu, and Feed panics on a point older than the
// last. The future points are dropped, the rest of the series survives,
// and a series that is not chronological is dropped whole.
func TestRestoreStateDropsFutureMonitorPoints(t *testing.T) {
	cfg := DefaultRealtimeConfig()
	cfg.MinCoverage = 0
	cfg.MinQuality = 0
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ahead, scrambled := benchApproachKey(0), benchApproachKey(1)
	st := EngineState{Now: 1500, Approaches: map[mapmatch.Key]ApproachState{
		ahead: {
			Result:  primedResult(ahead, 1500, 90),
			Monitor: []CyclePoint{{T: 900, Cycle: 90}, {T: 1200, Cycle: 90}, {T: 1500, Cycle: 90}, {T: 9000, Cycle: 90}, {T: 1e12, Cycle: 90}},
		},
		scrambled: {
			Result:  primedResult(scrambled, 1500, 97),
			Monitor: []CyclePoint{{T: 1200, Cycle: 97}, {T: 900, Cycle: 97}},
		},
	}}
	if n := eng.RestoreState(st); n != 2 {
		t.Fatalf("restored %d approaches, want 2", n)
	}
	if got := eng.monitors[ahead].Series(); len(got) != 3 || got[2].T != 1500 {
		t.Fatalf("series ahead of the clock restored as %+v, want its three points up to 1500", got)
	}
	if mon := eng.monitors[scrambled]; mon != nil {
		t.Fatalf("non-chronological series restored: %+v", mon.Series())
	}
	// The first round publishes both keys and feeds both monitors at 1800.
	eng.Ingest(benchRecords(0, 0, 1800))
	eng.Ingest(benchRecords(1, 0, 1800))
	if err := ignoreChanges(eng.Advance(1800)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []mapmatch.Key{ahead, scrambled} {
		mon := eng.monitors[k]
		if mon == nil {
			t.Fatalf("%v: round fed no monitor", k)
		}
		if s := mon.Series(); s[len(s)-1].T != 1800 {
			t.Fatalf("%v: monitor series ends at %v after the round at 1800", k, s[len(s)-1].T)
		}
	}
}
