package core

import (
	"math"
	"strings"
	"testing"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
)

// failingRecords builds records that reach the pipeline but cannot
// support identification — all reports share one second, so they merge
// to a single sample and cycle identification always fails — forcing a
// per-approach failure every round.
func failingRecords(key mapmatch.Key, lo, hi float64) []mapmatch.Matched {
	var ms []mapmatch.Matched
	for i := 0; i < 6; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate: "B1", SpeedKMH: 0,
			T:          lo + 1,
			Light:      key.Light,
			Approach:   key.Approach,
			DistToStop: 40,
		})
	}
	return ms
}

// quarantineConfig is a tight cadence with fast quarantine for tests: a
// quarantine lasts 600 s, doubling up to 7200 s, and estimates go stale
// past 900 s.
func quarantineConfig() RealtimeConfig {
	cfg := DefaultRealtimeConfig()
	cfg.Window = 600
	cfg.Interval = 300
	cfg.Faults = FaultPolicy{MaxBufferPerKey: 10000, QuarantineAfter: 2}
	return cfg
}

func TestEngineQuarantinesFailingApproach(t *testing.T) {
	eng, err := NewEngine(quarantineConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	for _, at := range []float64{300, 600} {
		eng.Ingest(failingRecords(key, at-300, at))
		if _, err := eng.Advance(at); err != nil {
			t.Fatal(err)
		}
	}
	h := eng.Health().Approaches[key]
	if h.State != Quarantined {
		t.Fatalf("after 2 failures: state %v, health %+v", h.State, h)
	}
	if h.Quarantines != 1 || h.ConsecutiveFailures != 2 || h.LastError == "" {
		t.Fatalf("ledger %+v", h)
	}
	if h.QuarantinedUntil != 1200 {
		t.Fatalf("quarantined until %v, want 1200", h.QuarantinedUntil)
	}

	// While benched, failures must not accumulate.
	eng.Ingest(failingRecords(key, 600, 900))
	if _, err := eng.Advance(900); err != nil {
		t.Fatal(err)
	}
	if got := eng.Health().Approaches[key].ConsecutiveFailures; got != 2 {
		t.Fatalf("failures grew during quarantine: %d", got)
	}

	// On release the approach is retried; another failure doubles the
	// backoff.
	eng.Ingest(failingRecords(key, 900, 1200))
	if _, err := eng.Advance(1200); err != nil {
		t.Fatal(err)
	}
	h = eng.Health().Approaches[key]
	if h.Quarantines != 2 || h.QuarantinedUntil != 1200+1200 {
		t.Fatalf("backoff did not double: %+v", h)
	}
}

func TestQuarantineIsolatesOnlyFailingApproach(t *testing.T) {
	cfg := quarantineConfig()
	// Non-overlapping windows so a record participates in exactly one
	// estimation round.
	cfg.Window = 300
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	good := mapmatch.Key{Light: 9, Approach: lights.EastWest}
	for _, at := range []float64{300, 600, 900} {
		eng.Ingest(failingRecords(bad, at-300, at))
		// The "good" approach also fails identification here (synthetic
		// data), but the point is the ledgers are independent: give it
		// data only in the first round, so it records exactly one
		// failure while bad racks up enough to be benched.
		if at == 300 {
			eng.Ingest(failingRecords(good, at-300, at))
		}
		if _, err := eng.Advance(at); err != nil {
			t.Fatal(err)
		}
	}
	rep := eng.Health()
	if rep.Approaches[bad].State != Quarantined {
		t.Fatalf("bad approach not quarantined: %+v", rep.Approaches[bad])
	}
	if g := rep.Approaches[good]; g.State == Quarantined || g.ConsecutiveFailures != 1 {
		t.Fatalf("good approach caught in blast radius: %+v", g)
	}
}

func TestIngestDropsRecordsOlderThanCutoff(t *testing.T) {
	cfg := quarantineConfig()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(10000); err != nil {
		t.Fatal(err)
	}
	key := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	eng.Ingest(failingRecords(key, 0, 600)) // no window from 10000 on reaches back to 600
	rep := eng.Health()
	if rep.BufferedRecords != 0 {
		t.Fatalf("%d stale records buffered", rep.BufferedRecords)
	}
	if rep.DroppedOldRecords == 0 {
		t.Fatal("old-record drops not counted")
	}
	// Fresh records still land.
	eng.Ingest(failingRecords(key, 9800, 10000))
	if got := eng.Health().BufferedRecords; got == 0 {
		t.Fatal("fresh records rejected")
	}
}

func TestIngestCapsPerKeyBuffer(t *testing.T) {
	cfg := quarantineConfig()
	cfg.Faults.MaxBufferPerKey = 100
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	var ms []mapmatch.Matched
	for i := 0; i < 1000; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate: "B1", T: float64(i),
			Light: key.Light, Approach: key.Approach,
		})
	}
	eng.Ingest(ms)
	rep := eng.Health()
	if rep.BufferedRecords > 100 {
		t.Fatalf("buffer %d exceeds cap 100", rep.BufferedRecords)
	}
	if rep.DroppedOverflowRecords != int64(1000-rep.BufferedRecords) {
		t.Fatalf("overflow accounting: buffered %d, dropped %d",
			rep.BufferedRecords, rep.DroppedOverflowRecords)
	}
	// The newest records must be the survivors.
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	for _, m := range eng.approaches[key].buf.records() {
		if m.t < 500 {
			t.Fatalf("old record t=%v survived eviction", m.t)
		}
	}
}

func TestSnapshotCarriesAgeAndHealth(t *testing.T) {
	cfg := quarantineConfig()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	eng.mu.Lock()
	eng.publishLocked(eng.approachLocked(key), Result{Key: key, Cycle: 100, Red: 40, Green: 60, WindowEnd: 1000})
	eng.now = 1200
	eng.mu.Unlock()
	snap := eng.Snapshot()
	est, ok := snap[key]
	if !ok {
		t.Fatal("estimate missing from snapshot")
	}
	if est.Age != 200 || est.Health != Fresh {
		t.Fatalf("age %v health %v, want 200/fresh", est.Age, est.Health)
	}
	// Embedded Result still reads naturally.
	if est.Cycle != 100 {
		t.Fatalf("embedded result broken: %+v", est)
	}

	// Age past three intervals flips the state.
	eng.mu.Lock()
	eng.now = 1000 + staleIntervals*cfg.Interval + 1
	eng.mu.Unlock()
	if got := eng.Snapshot()[key].Health; got != Stale {
		t.Fatalf("aged estimate health %v, want stale", got)
	}

	_, h, answered := eng.StateOfHealth(key, 2000)
	if !answered || h.State != Stale || math.IsInf(h.EstimateAge, 1) {
		t.Fatalf("StateOfHealth: answered=%v health=%+v", answered, h)
	}
}

func TestPipelinePanicContainedPerApproach(t *testing.T) {
	boom := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	calm := mapmatch.Key{Light: 2, Approach: lights.EastWest}
	identifyHook = func(k mapmatch.Key) {
		if k == boom {
			panic("synthetic identification bug")
		}
	}
	defer func() { identifyHook = nil }()
	part := mapmatch.Partition{}
	for _, k := range []mapmatch.Key{boom, calm} {
		part[k] = failingRecords(k, 0, 600)
	}
	res, err := RunPipeline(part, 0, 600, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res[boom].Err == nil || !strings.Contains(res[boom].Err.Error(), "panic") {
		t.Fatalf("panic not converted to error: %v", res[boom].Err)
	}
	if res[calm].Err != nil && strings.Contains(res[calm].Err.Error(), "panic") {
		t.Fatalf("panic leaked into sibling approach: %v", res[calm].Err)
	}
}

func TestEngineSurvivesPanickingApproach(t *testing.T) {
	identifyHook = func(mapmatch.Key) { panic("every light is broken") }
	defer func() { identifyHook = nil }()
	eng, err := NewEngine(quarantineConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := mapmatch.Key{Light: 4, Approach: lights.NorthSouth}
	eng.Ingest(failingRecords(key, 0, 300))
	if _, err := eng.Advance(300); err != nil {
		t.Fatal(err)
	}
	h := eng.Health().Approaches[key]
	if !strings.Contains(h.LastError, "panic") || h.ConsecutiveFailures != 1 {
		t.Fatalf("panic not recorded in health: %+v", h)
	}
}

func TestHealthStateString(t *testing.T) {
	for s, want := range map[HealthState]string{Fresh: "fresh", Stale: "stale", Quarantined: "quarantined"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestFaultPolicyValidate(t *testing.T) {
	bad := []FaultPolicy{
		{MaxBufferPerKey: -1},
		{QuarantineAfter: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
	if (FaultPolicy{}).Validate() != nil {
		t.Fatal("zero policy (cap and quarantine off) rejected")
	}
	if DefaultFaultPolicy().Validate() != nil {
		t.Fatal("default policy rejected")
	}
}

// TestPolicyFollowsInterval: staleness and quarantine are counted in
// re-estimation intervals, so a slower cadence neither labels a healthy
// estimate stale before its refresh is overdue nor releases a benched
// approach before the round after the one that benched it. At the default
// 300 s the policy is the fixed 900 s / 600 s / 7200 s it always was.
func TestPolicyFollowsInterval(t *testing.T) {
	for _, tc := range []struct {
		interval float64
		aged     HealthState // an estimate 1000 s old
	}{
		{300, Stale},
		{1200, Fresh},
	} {
		cfg := DefaultRealtimeConfig()
		cfg.Window, cfg.Interval = tc.interval, tc.interval
		cfg.Faults.QuarantineAfter = 2
		iv, n := tc.interval, cfg.Faults.QuarantineAfter

		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
		eng.mu.Lock()
		eng.publishLocked(eng.approachLocked(key), Result{Key: key, Cycle: 100, Red: 40, Green: 60, WindowEnd: 1000})
		eng.now = 2000
		eng.mu.Unlock()
		if got := eng.Snapshot()[key].Health; got != tc.aged {
			t.Errorf("interval %v: estimate aged 1000 s reads %v, want %v", iv, got, tc.aged)
		}

		eng, err = NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bad := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
		round := func(r int) ApproachHealth {
			at := float64(r) * iv
			eng.Ingest(failingRecords(bad, at-iv, at))
			if _, err := eng.Advance(at); err != nil {
				t.Fatal(err)
			}
			return eng.Health().Approaches[bad]
		}
		for r := 1; r < n; r++ {
			round(r)
		}
		if h := round(n); h.State != Quarantined || h.QuarantinedUntil != float64(n)*iv+2*iv {
			t.Errorf("interval %v: after %d failures %+v, want quarantined for two intervals", iv, n, h)
		}
		if h := round(n + 1); h.State != Quarantined || h.ConsecutiveFailures != n {
			t.Errorf("interval %v: the round after the bench ran the key: %+v", iv, h)
		}
		if h := round(n + 2); h.ConsecutiveFailures != n+1 || h.QuarantinedUntil != float64(n+2)*iv+4*iv {
			t.Errorf("interval %v: released key's next failure %+v, want benched for four intervals", iv, h)
		}

		// Each further failure doubles the bench, up to 24 intervals.
		a := eng.approaches[bad]
		eng.mu.Lock()
		for _, want := range []float64{8, 16, 24, 24} {
			eng.recordFailureLocked(a, 0, nil)
			if a.health.backoff != want*iv {
				t.Errorf("interval %v: backoff %v, want %v intervals", iv, a.health.backoff, want)
			}
		}
		eng.mu.Unlock()
	}
}
