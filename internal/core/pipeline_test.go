package core

import (
	"math"
	"testing"
	"time"

	"taxilight/internal/dsp"
	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

func matched(plate string, t float64, pos geo.XY, occupied bool, distToStop float64) mapmatch.Matched {
	return mapmatch.Matched{
		Plate: plate, Occupied: occupied, SpeedKMH: 0,
		T:          t,
		Snapped:    pos,
		DistToStop: distToStop,
	}
}

// extractStops runs the stop index's run extractor over one partition's
// records and returns every run that ends within MaxStopDist of the stop
// line, passenger stops included (flagged), in plate order.
func extractStops(ms []mapmatch.Matched, cfg StopExtractConfig) ([]StopEvent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var rm roundMem
	rm.load(mapmatch.Partition{{}: ms})
	var si StopIndex
	var ws stopScratch
	si.gather(&ws, rm.view, rm.names)
	var out []StopEvent
	for _, g := range ws.groups {
		for _, r := range si.appendRuns(nil, ws.refs[g.lo:g.hi], rm.names[g.id], cfg) {
			if si.at(r.last).dist <= cfg.MaxStopDist {
				out = append(out, r.ev)
			}
		}
	}
	return out, nil
}

func TestExtractStopsBasic(t *testing.T) {
	// Taxi reports from the same spot at t=0,20,40,60: one stop of 60 s.
	ms := []mapmatch.Matched{
		matched("B1", 0, geo.XY{X: 0, Y: 0}, false, 30),
		matched("B1", 20, geo.XY{X: 2, Y: 1}, false, 30),
		matched("B1", 40, geo.XY{X: 1, Y: 3}, false, 30),
		matched("B1", 60, geo.XY{X: 0, Y: 2}, false, 30),
		matched("B1", 80, geo.XY{X: 200, Y: 0}, false, 200), // moved off
	}
	stops, err := extractStops(ms, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 1 {
		t.Fatalf("stops = %+v, want 1", stops)
	}
	if stops[0].Duration() != 60 || stops[0].Records != 4 {
		t.Fatalf("stop = %+v", stops[0])
	}
	if stops[0].OccupancyChanged {
		t.Fatal("occupancy falsely flagged")
	}
}

func TestExtractStopsOccupancyFlag(t *testing.T) {
	ms := []mapmatch.Matched{
		matched("B1", 0, geo.XY{X: 0, Y: 0}, false, 30),
		matched("B1", 20, geo.XY{X: 1, Y: 1}, true, 30), // passenger boards
		matched("B1", 40, geo.XY{X: 0, Y: 1}, true, 30),
	}
	stops, err := extractStops(ms, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 1 || !stops[0].OccupancyChanged {
		t.Fatalf("stops = %+v", stops)
	}
}

func TestExtractStopsBreaksOnGapAndDistance(t *testing.T) {
	cfg := DefaultStopExtractConfig()
	ms := []mapmatch.Matched{
		matched("B1", 0, geo.XY{X: 0, Y: 0}, false, 30),
		matched("B1", 20, geo.XY{X: 1, Y: 0}, false, 30),
		// 200 s gap: run must break.
		matched("B1", 220, geo.XY{X: 0, Y: 1}, false, 30),
		matched("B1", 240, geo.XY{X: 1, Y: 1}, false, 30),
	}
	stops, err := extractStops(ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 2 {
		t.Fatalf("stops = %+v, want 2 runs", stops)
	}
}

func TestExtractStopsIgnoresFarFromStopLine(t *testing.T) {
	ms := []mapmatch.Matched{
		matched("B1", 0, geo.XY{X: 0, Y: 0}, false, 400), // mid-block dwell
		matched("B1", 20, geo.XY{X: 1, Y: 0}, false, 400),
	}
	stops, err := extractStops(ms, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) != 0 {
		t.Fatalf("far-from-light stop kept: %+v", stops)
	}
}

func TestExtractStopsMultiplePlatesDeterministic(t *testing.T) {
	ms := []mapmatch.Matched{
		matched("B2", 0, geo.XY{X: 0, Y: 0}, false, 30),
		matched("B2", 25, geo.XY{X: 1, Y: 0}, false, 30),
		matched("B1", 5, geo.XY{X: 50, Y: 0}, false, 40),
		matched("B1", 30, geo.XY{X: 51, Y: 0}, false, 40),
	}
	a, err := extractStops(ms, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := extractStops(ms, DefaultStopExtractConfig())
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("stops = %d/%d, want 2", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("extraction not deterministic")
		}
	}
	if a[0].Plate != "B1" {
		t.Fatalf("plates not in deterministic order: %+v", a)
	}
}

func TestExtractStopsValidation(t *testing.T) {
	if _, err := extractStops(nil, StopExtractConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSpeedSamples(t *testing.T) {
	ms := []mapmatch.Matched{
		{SpeedKMH: 30, T: 5},
		{SpeedKMH: 0, T: 25},
	}
	ss := SpeedSamples(ms)
	if len(ss) != 2 || ss[0].T != 5 || ss[0].V != 30 || ss[1].V != 0 {
		t.Fatalf("samples = %v", ss)
	}
}

// pipelineFixture runs the full stack: grid city -> simulator -> trace
// generator -> map matcher -> partition, returning everything a pipeline
// test needs.
func pipelineFixture(t testing.TB, taxis int, horizon float64) (*roadnet.Network, mapmatch.Partition) {
	t.Helper()
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 3, 3
	gcfg.DynamicShare = 0
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = taxis
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
	return net, m.PartitionRecords(recs)
}

func TestRunPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	net, part := pipelineFixture(t, 400, 3600)
	cfg := DefaultPipelineConfig()
	results, err := RunPipeline(part, 0, 3600, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	okCycle, total := 0, 0
	for key, res := range results {
		if res.Err != nil {
			continue
		}
		total++
		truth := net.Node(key.Light).Light.ScheduleFor(key.Approach, 1800)
		if math.Abs(res.Cycle-truth.Cycle) <= 5 {
			okCycle++
		}
		if res.Red <= 0 || res.Red >= res.Cycle {
			t.Errorf("key %v: red %v outside (0, %v)", key, res.Red, res.Cycle)
		}
		if math.Abs(res.Green-(res.Cycle-res.Red)) > 1e-9 {
			t.Errorf("key %v: green != cycle - red", key)
		}
	}
	if total == 0 {
		t.Fatal("every approach failed")
	}
	// The paper reports the cycle estimator is accurate for most lights
	// with ~7 % gross outliers; require a clear majority here.
	if okCycle*2 < total {
		t.Fatalf("cycle within 5 s for only %d/%d approaches", okCycle, total)
	}
}

func TestRunPipelineParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, part := pipelineFixture(t, 200, 1800)
	cfgSerial := DefaultPipelineConfig()
	cfgSerial.Workers = 1
	cfgPar := DefaultPipelineConfig()
	cfgPar.Workers = 8
	a, err := RunPipeline(part, 0, 1800, cfgSerial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPipeline(part, 0, 1800, cfgPar)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for k, ra := range a {
		rb := b[k]
		if (ra.Err == nil) != (rb.Err == nil) {
			t.Fatalf("key %v error mismatch: %v vs %v", k, ra.Err, rb.Err)
		}
		if ra.Err == nil && (ra.Cycle != rb.Cycle || ra.Red != rb.Red || ra.GreenToRedPhase != rb.GreenToRedPhase) {
			t.Fatalf("key %v results differ", k)
		}
	}
}

// TestDenseApproachEnhanced holds that the Eq. 3 enhancement does not
// depend on how many samples an approach has: a window of at least 60
// samples whose perpendicular has records reads its cycle off the
// enhanced series, and without the perpendicular's records it reads it
// off the primary alone.
func TestDenseApproachEnhanced(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, part := pipelineFixture(t, 200, 1800)
	cfg := DefaultPipelineConfig()
	const t0, t1 = 0, 1800
	// samples are the speed samples identifyOne takes of key: the stop
	// index is built over the same partition, so dwell runs match.
	samples := func(p mapmatch.Partition, key mapmatch.Key) []dsp.Sample {
		var rm roundMem
		rm.load(p)
		rm.index.build(rm.view, rm.names, cfg.Stops)
		return appendSpeedSamples(nil, rm.view[key], &rm.index, cfg.MaxSpeedDist)
	}
	keys := make([]mapmatch.Key, 0, len(part))
	for k := range part {
		keys = append(keys, k)
	}
	sortKeys(keys)
	checked := 0
	for _, key := range keys {
		pk := key.PerpendicularKey()
		if len(part[pk]) == 0 {
			continue
		}
		with := mapmatch.Partition{key: part[key], pk: part[pk]}
		primary, perp := samples(with, key), samples(with, pk)
		if len(appendWindowed(nil, primary, t0, t1)) < 60 || len(perp) == 0 {
			continue
		}
		enhanced, errE := IdentifyCycleEnhanced(primary, perp, t0, t1, cfg.Cycle)
		plain, errP := IdentifyCycle(primary, t0, t1, cfg.Cycle)
		if errE != nil || errP != nil || enhanced == plain {
			continue // the mirrored samples would not show in the cycle
		}
		res, err := RunPipeline(with, t0, t1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res[key]
		if r.Err != nil || !r.Enhanced || r.Cycle != enhanced {
			t.Fatalf("%v with %d windowed samples: enhanced %v, cycle %v, err %v; want enhanced, cycle %v (primary alone %v)",
				key, len(appendWindowed(nil, primary, t0, t1)), r.Enhanced, r.Cycle, r.Err, enhanced, plain)
		}

		alone := mapmatch.Partition{key: part[key]}
		res, err = RunPipeline(alone, t0, t1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := IdentifyCycle(samples(alone, key), t0, t1, cfg.Cycle)
		if err != nil {
			t.Fatal(err)
		}
		if r := res[key]; r.Err != nil || r.Enhanced || r.Cycle != want {
			t.Fatalf("%v without its perpendicular: enhanced %v, cycle %v, err %v; want not enhanced, cycle %v",
				key, r.Enhanced, r.Cycle, r.Err, want)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d dense approaches whose enhanced cycle differs from the plain one", checked)
	}
}

func TestRunPipelineEmptyPartition(t *testing.T) {
	res, err := RunPipeline(mapmatch.Partition{}, 0, 3600, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results = %v", res)
	}
}

func TestRunPipelineSparsePartitionReportsError(t *testing.T) {
	part := mapmatch.Partition{
		mapmatch.Key{Light: 1, Approach: lights.NorthSouth}: {
			matched("B1", 10, geo.XY{X: 0, Y: 0}, false, 30),
		},
	}
	res, err := RunPipeline(part, 0, 3600, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res[mapmatch.Key{Light: 1, Approach: lights.NorthSouth}]
	if r.Err == nil {
		t.Fatal("sparse partition did not error")
	}
}

func TestRunPipelineValidation(t *testing.T) {
	bad := DefaultPipelineConfig()
	bad.Workers = -1
	if _, err := RunPipeline(mapmatch.Partition{}, 0, 100, bad); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func BenchmarkRunPipeline(b *testing.B) {
	_, part := pipelineFixture(b, 200, 1800)
	cfg := DefaultPipelineConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = RunPipeline(part, 0, 1800, cfg)
	}
}

func TestRunPipelineRotatedIrregularCity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Robustness: a 20-degree-rotated, jittered street grid must still
	// identify a clear majority of cycles — the NS/EW machinery cannot
	// assume axis alignment.
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 3, 3
	gcfg.DynamicShare = 0
	gcfg.RotationDeg = 20
	gcfg.PosJitter = 60
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = 300
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
	recs := gen.Collect(3600)
	epoch := time.Date(2014, 12, 5, 0, 0, 0, 0, time.UTC)
	m, err := mapmatch.New(net, epoch, mapmatch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	part := m.PartitionRecords(recs)
	results, err := RunPipeline(part, 0, 3600, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ok, total := 0, 0
	for key, res := range results {
		if res.Err != nil {
			continue
		}
		total++
		truth := net.Node(key.Light).Light.ScheduleFor(key.Approach, 1800)
		if math.Abs(res.Cycle-truth.Cycle) <= 5 {
			ok++
		}
	}
	if total < 10 {
		t.Fatalf("only %d approaches identified", total)
	}
	if ok*3 < total*2 {
		t.Fatalf("rotated city cycle accuracy %d/%d", ok, total)
	}
}

func TestResultQualityDiscriminates(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	net, part := pipelineFixture(t, 300, 3600)
	results, err := RunPipeline(part, 0, 3600, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var goodQ, badQ []float64
	for key, res := range results {
		if res.Err != nil {
			continue
		}
		truth := net.Node(key.Light).Light.ScheduleFor(key.Approach, 1800)
		if math.Abs(res.Cycle-truth.Cycle) <= 5 {
			goodQ = append(goodQ, res.Quality)
		} else {
			badQ = append(badQ, res.Quality)
		}
	}
	if len(goodQ) == 0 {
		t.Fatal("no accurate results to compare")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Accurate identifications must carry meaningfully positive quality.
	if mean(goodQ) <= 0 {
		t.Fatalf("mean quality of accurate results = %v", mean(goodQ))
	}
	// When gross errors exist, their mean quality should not exceed the
	// accurate results' (weak assertion: quality is a heuristic).
	if len(badQ) > 0 && mean(badQ) > mean(goodQ)*1.5 {
		t.Fatalf("gross errors have higher quality: %v vs %v", mean(badQ), mean(goodQ))
	}
}
