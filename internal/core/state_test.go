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

// prime publishes results as a warm-start or failover prime does:
// RestoreState with no clock and no monitor state.
func prime(eng *Engine, results ...Result) []mapmatch.Key {
	st := EngineState{Approaches: map[mapmatch.Key]ApproachState{}}
	for _, r := range results {
		st.Approaches[r.Key] = ApproachState{Result: r}
	}
	return eng.RestoreState(st)
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
	prime(eng, r1, r2)

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
	if n := len(eng2.RestoreState(st)); n != 2 {
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

// TestRestoreStateSkipsBadResults: an entry with no usable schedule is
// not published.
func TestRestoreStateSkipsBadResults(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	k := stateKey(2, lights.NorthSouth)
	bad := primedResult(k, 1800, 0) // non-positive cycle
	st := EngineState{Now: 1800, Approaches: map[mapmatch.Key]ApproachState{k: {Result: bad}}}
	if n := len(eng.RestoreState(st)); n != 0 {
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
	var mon Monitor
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

	restored, err := RestoreMonitor(mon.State())
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
// state holds a point after its own clock (corrupt, or forged) must not
// arm a panic for the first round — publishRound feeds the monitor at the
// round's time, under e.mu, and Feed panics on a point older than the
// last. Such a state is dropped whole, as is one that is not
// chronological, and the approach's monitor starts empty; a valid state
// is restored as it was, and an empty one leaves the monitor as it is.
func TestRestoreStateDropsFutureMonitorPoints(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	ahead, scrambled, valid, empty := benchApproachKey(0), benchApproachKey(1), benchApproachKey(2), benchApproachKey(3)
	var mon Monitor
	for _, at := range []float64{900, 1200, 1500} {
		mon.Feed(CyclePoint{T: at, Cycle: 90})
	}
	good := mon.State()
	// Every key's monitor holds good before the restore under test.
	primed := EngineState{Now: 1500, Approaches: map[mapmatch.Key]ApproachState{}}
	for _, k := range []mapmatch.Key{ahead, scrambled, valid, empty} {
		primed.Approaches[k] = ApproachState{Result: primedResult(k, 1200, 90), Monitor: good}
	}
	eng.RestoreState(primed)
	future, outOfOrder := good, good
	future.Last[1].T = 9000
	outOfOrder.Last[0].T, outOfOrder.Last[1].T = 1500, 1200
	st := EngineState{Now: 1500, Approaches: map[mapmatch.Key]ApproachState{
		ahead:     {Result: primedResult(ahead, 1500, 90), Monitor: future},
		scrambled: {Result: primedResult(scrambled, 1500, 97), Monitor: outOfOrder},
		valid:     {Result: primedResult(valid, 1500, 90), Monitor: good},
		empty:     {Result: primedResult(empty, 1500, 90)},
	}}
	if n := len(eng.RestoreState(st)); n != 4 {
		t.Fatalf("restored %d approaches, want 4", n)
	}
	for k, want := range map[mapmatch.Key]MonitorState{ahead: {}, scrambled: {}, valid: good, empty: good} {
		if got := eng.approaches[k].monitor.State(); got != want {
			t.Fatalf("%v: monitor restored as %+v, want %+v", k, got, want)
		}
	}
	// The first round publishes every key and feeds every monitor at 1800.
	for i := 0; i < 4; i++ {
		eng.Ingest(benchRecords(i, 0, 1800))
	}
	if err := ignoreChanges(eng.Advance(1800)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []mapmatch.Key{ahead, scrambled, valid, empty} {
		if s := eng.approaches[k].monitor.State(); s.Held == 0 || s.Last[1].T != 1800 {
			t.Fatalf("%v: monitor's newest point is %+v after the round at 1800", k, s.Last[1])
		}
	}
}
