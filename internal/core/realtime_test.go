package core

import (
	"math"
	"sync"
	"testing"
	"time"

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
			Rec: trace.Record{Plate: "B1", SpeedKMH: 10},
			T:   float64(i * 10),
		})
	}
	eng.Ingest(ms)
	if _, err := eng.Advance(10000); err != nil {
		t.Fatal(err)
	}
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	for k, buf := range eng.buf {
		for _, m := range buf.ms {
			if m.t < 10000-2*cfg.Window {
				t.Fatalf("key %v still holds record at t=%v", k, m.t)
			}
		}
	}
}
