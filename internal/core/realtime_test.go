package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

func TestRealtimeConfigValidate(t *testing.T) {
	bad := []func(*RealtimeConfig){
		func(c *RealtimeConfig) { c.Window = 0 },
		func(c *RealtimeConfig) { c.Interval = 0 },
		func(c *RealtimeConfig) { c.Interval = c.Window + 1 },
		func(c *RealtimeConfig) { c.Monitor.Confirm = 0 },
		func(c *RealtimeConfig) { c.History.Tolerance = 0 },
		func(c *RealtimeConfig) { c.Pipeline.Workers = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultRealtimeConfig()
		mut(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// realtimeFixture streams a simulated world into an engine.
func realtimeFixture(t testing.TB, horizon float64) (*Engine, *roadnet.Network, []mapmatch.Matched) {
	t.Helper()
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 3, 3
	gcfg.DynamicShare = 0
	gcfg.CycleMin, gcfg.CycleMax = 80, 140
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = 200
	sim, err := trafficsim.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := trace.DefaultGenConfig(sim, net.Projection())
	tcfg.Activity = nil
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Collect(horizon)
	epoch := time.Date(2014, 12, 5, 0, 0, 0, 0, time.UTC)
	m, err := mapmatch.New(net, epoch, mapmatch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var matched []mapmatch.Matched
	for _, r := range recs {
		if mt, ok := m.Match(r); ok {
			matched = append(matched, mt)
		}
	}
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, matched
}

// benchApproachKey returns the partition key of the i-th synthetic
// approach. Each approach gets its own light so the keys are independent
// of each other.
func benchApproachKey(i int) mapmatch.Key {
	return mapmatch.Key{Light: roadnet.NodeID(100 + i), Approach: lights.NorthSouth}
}

// benchRecords synthesises matched records for one approach over [t0, t1):
// a handful of taxis loop past the light on a fixed red/green schedule,
// reporting every 12 s — stationary at the stop line during red (so stop
// extraction finds runs) and sweeping through at speed during green (so
// the DFT sees the fundamental). Fully deterministic: the same inputs
// always produce byte-identical records.
func benchRecords(keyIdx int, t0, t1 float64) []mapmatch.Matched {
	key := benchApproachKey(keyIdx)
	cycle := 90.0 + float64(keyIdx%5)*7
	red := 0.4 * cycle
	base := float64(keyIdx) * 1000
	const plates = 4
	const report = 12.0
	var out []mapmatch.Matched
	for p := 0; p < plates; p++ {
		plate := fmt.Sprintf("B%03d-%d", keyIdx, p)
		for t := t0 + float64(p)*3; t < t1; t += report {
			ph := math.Mod(t-float64(keyIdx)*13, cycle)
			if ph < 0 {
				ph += cycle
			}
			var speed, dist float64
			var pos geo.XY
			if ph < red {
				speed = 0
				dist = 8
				pos = geo.XY{X: 8, Y: base}
			} else {
				speed = 30 + 15*math.Sin(t/7.3+float64(keyIdx))
				dist = 10 + float64((int(t)*37)%100)
				pos = geo.XY{X: dist, Y: base}
			}
			out = append(out, mapmatch.Matched{
				Plate: plate, SpeedKMH: speed,
				Light:      key.Light,
				Approach:   key.Approach,
				T:          t,
				DistToStop: dist,
				Snapped:    pos,
			})
		}
	}
	return out
}

func TestEngineStreamingEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming integration")
	}
	eng, net, matched := realtimeFixture(t, 2700)
	// Stream in 5-minute chunks, advancing after each.
	chunk := 300.0
	idx := 0
	for at := chunk; at <= 2700; at += chunk {
		var batch []mapmatch.Matched
		for idx < len(matched) && matched[idx].T <= at {
			batch = append(batch, matched[idx])
			idx++
		}
		eng.Ingest(batch)
		if _, err := eng.Advance(at); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Now() != 2700 {
		t.Fatalf("engine clock = %v", eng.Now())
	}
	snap := eng.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no estimates after streaming")
	}
	ok, total := 0, 0
	for key, res := range snap {
		truth := net.Node(key.Light).Light.ScheduleFor(key.Approach, 2000)
		total++
		if math.Abs(res.Cycle-truth.Cycle) <= 5 {
			ok++
		}
	}
	if ok*3 < total*2 {
		t.Fatalf("streaming cycle accuracy %d/%d", ok, total)
	}
}

func TestEngineStateOf(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming integration")
	}
	eng, net, matched := realtimeFixture(t, 2700)
	eng.Ingest(matched)
	if _, err := eng.Advance(2700); err != nil {
		t.Fatal(err)
	}
	// Score the live red/green answer against ground truth over the
	// minutes after the last estimate — the real-time use case.
	okStates, total := 0, 0
	for key := range eng.Snapshot() {
		truthLight := net.Node(key.Light).Light
		for dt := 0.0; dt < 120; dt += 7 {
			at := 2700 + dt
			got, ok := eng.StateOf(key, at)
			if !ok {
				continue
			}
			total++
			if got == truthLight.StateFor(key.Approach, at) {
				okStates++
			}
		}
	}
	if total == 0 {
		t.Fatal("no states answered")
	}
	// The paper's errors (a few seconds around each change) translate to
	// high but not perfect agreement.
	if float64(okStates) < 0.7*float64(total) {
		t.Fatalf("live state accuracy %d/%d", okStates, total)
	}
}

func TestEngineStateOfUnknownKey(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.StateOf(mapmatch.Key{Light: 1, Approach: lights.NorthSouth}, 0); ok {
		t.Fatal("unknown key answered")
	}
}

func TestEngineAdvanceBackwardsNoop(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(100); err != nil {
		t.Fatal(err)
	}
	ch, err := eng.Advance(50)
	if err != nil || ch != nil {
		t.Fatalf("backwards advance: %v, %v", ch, err)
	}
	if eng.Now() != 100 {
		t.Fatalf("clock moved backwards: %v", eng.Now())
	}
}

func TestEngineConcurrentIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming integration")
	}
	eng, _, matched := realtimeFixture(t, 1200)
	var wg sync.WaitGroup
	chunk := len(matched)/4 + 1
	for w := 0; w < 4; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(matched) {
			hi = len(matched)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(ms []mapmatch.Matched) {
			defer wg.Done()
			eng.Ingest(ms)
		}(matched[lo:hi])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = eng.Advance(600)
	}()
	wg.Wait()
	<-done
	if _, err := eng.Advance(1200); err != nil {
		t.Fatal(err)
	}
	if len(eng.Snapshot()) == 0 {
		t.Fatal("no estimates after concurrent ingestion")
	}
}

func TestEngineTrimsOldRecords(t *testing.T) {
	cfg := DefaultRealtimeConfig()
	cfg.Window = 600
	cfg.Interval = 300
	// Plenty of synthetic records on one key far in the past.
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms []mapmatch.Matched
	for i := 0; i < 100; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate: "B1", SpeedKMH: 10,
			T: float64(i * 10),
		})
	}
	eng.Ingest(ms)
	if _, err := eng.Advance(10000); err != nil {
		t.Fatal(err)
	}
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	for k, a := range eng.approaches {
		for _, m := range a.buf.records() {
			if m.t < eng.nextRun-cfg.Window {
				t.Fatalf("key %v still holds record at t=%v", k, m.t)
			}
		}
	}
}

// TestRetentionFollowsNextWindow pins the one retention rule: a record is
// kept exactly while the next pending round's window can reach it.
func TestRetentionFollowsNextWindow(t *testing.T) {
	cfg := DefaultRealtimeConfig() // Window 1800, Interval 300
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, quiet := benchApproachKey(0), benchApproachKey(1)
	at := func(k mapmatch.Key, ts ...float64) []mapmatch.Matched {
		var ms []mapmatch.Matched
		for _, t := range ts {
			ms = append(ms, mapmatch.Matched{Plate: "B1", Light: k.Light, Approach: k.Approach, T: t})
		}
		return ms
	}
	buffered := func() []float64 {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		var ts []float64
		for _, o := range eng.approaches[key].buf.records() {
			ts = append(ts, o.t)
		}
		return ts
	}
	dirty := func(k mapmatch.Key) bool {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		a := eng.approaches[k]
		return a != nil && a.dirty
	}
	counts := func() [2]int64 {
		rep := eng.Health()
		return [2]int64{int64(rep.BufferedRecords), rep.DroppedOldRecords}
	}

	// Before the first Advance no round is scheduled and nothing is too old.
	eng.Ingest(at(key, -5000, 100, 299, 300, 1700))
	if got := counts(); got != [2]int64{5, 0} {
		t.Fatalf("before the first Advance: buffered, dropped old = %v, want [5 0]", got)
	}
	// The round at 1800 schedules the next at 2100, whose window starts at
	// 300: the trim after the round keeps exactly what that window reaches.
	if _, err := eng.Advance(1800); err != nil {
		t.Fatal(err)
	}
	if got, want := buffered(), []float64{300, 1700}; !slices.Equal(got, want) {
		t.Fatalf("after the round at 1800 the buffer holds %v, want %v", got, want)
	}
	// Older than nextRun-Window: counted, never buffered, key stays clean.
	eng.Ingest(at(quiet, 299.5))
	if got := counts(); got != [2]int64{2, 1} {
		t.Fatalf("record older than the next window: buffered, dropped old = %v, want [2 1]", got)
	}
	if dirty(quiet) {
		t.Fatal("a dropped record made its key dirty")
	}
	// Exactly nextRun-Window, the next window's first instant: kept, dirty.
	eng.Ingest(at(quiet, 300))
	if got := counts(); got != [2]int64{3, 1} {
		t.Fatalf("record at nextRun-Window: buffered, dropped old = %v, want [3 1]", got)
	}
	if !dirty(quiet) {
		t.Fatal("a record the next window reaches did not make its key dirty")
	}
	eng.Ingest(at(key, 300))
	// An Advance that runs no round moves no cutoff and touches no buffer:
	// the late record is still where Ingest appended it.
	if _, err := eng.Advance(2000); err != nil {
		t.Fatal(err)
	}
	if got, want := buffered(), []float64{300, 1700, 300}; !slices.Equal(got, want) {
		t.Fatalf("an Advance without a round rewrote the buffer: %v, want %v", got, want)
	}
	// The round at 2100 moves the cutoff to 600.
	if _, err := eng.Advance(2100); err != nil {
		t.Fatal(err)
	}
	if got, want := buffered(), []float64{1700}; !slices.Equal(got, want) {
		t.Fatalf("after the round at 2100 the buffer holds %v, want %v", got, want)
	}
}
