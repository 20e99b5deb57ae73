package trafficsim

import (
	"math"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

func testNet(t testing.TB) *roadnet.Network {
	t.Helper()
	cfg := roadnet.DefaultGridConfig()
	cfg.Rows, cfg.Cols = 4, 4
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testSim(t testing.TB, mutate func(*Config)) *Simulator {
	t.Helper()
	cfg := DefaultConfig(testNet(t))
	cfg.NumTaxis = 60
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	net := testNet(t)
	bad := []func(*Config){
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.NumTaxis = 0 },
		func(c *Config) { c.CarSpacing = 0 },
		func(c *Config) { c.Headway = -1 },
		func(c *Config) { c.Accel = 0 },
		func(c *Config) { c.Decel = -2 },
		func(c *Config) { c.DwellMin = -1 },
		func(c *Config) { c.DwellMax = 5; c.DwellMin = 10 },
		func(c *Config) { c.DwellProb = 1.5 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(net)
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSimAdvancesClock(t *testing.T) {
	s := testSim(t, nil)
	if s.Now() != 0 {
		t.Fatalf("initial time = %v", s.Now())
	}
	s.Step()
	if s.Now() != Tick {
		t.Fatalf("after one step = %v", s.Now())
	}
	s.RunUntil(60)
	if s.Now() != 60 {
		t.Fatalf("RunUntil = %v", s.Now())
	}
}

func TestStatesWellFormed(t *testing.T) {
	s := testSim(t, nil)
	s.RunUntil(300)
	states := s.States()
	if len(states) != s.NumVehicles() {
		t.Fatalf("states = %d, vehicles = %d", len(states), s.NumVehicles())
	}
	bb := geo.BBox{MinX: -1, MinY: -1, MaxX: 3 * 800 * 1.01, MaxY: 3 * 800 * 1.01}
	for _, st := range states {
		if !bb.Contains(st.Pos) {
			t.Fatalf("taxi %d off-map at %v", st.ID, st.Pos)
		}
		if st.SpeedMS < 0 || st.SpeedMS > 14 {
			t.Fatalf("taxi %d speed %v out of range", st.ID, st.SpeedMS)
		}
		if st.Stopped != (st.SpeedMS == 0) {
			t.Fatalf("taxi %d Stopped flag inconsistent", st.ID)
		}
	}
}

func TestSpeedNeverExceedsLimit(t *testing.T) {
	s := testSim(t, nil)
	limit := 13.9
	for i := 0; i < 1200; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.SpeedMS > limit+1e-9 {
				t.Fatalf("t=%v: taxi %d at %v m/s exceeds limit", s.Now(), st.ID, st.SpeedMS)
			}
		}
	}
}

func TestVehiclesStopAtRed(t *testing.T) {
	// Single road into a signalised node with a long red: the taxi must
	// come to rest before the stop line and remain stopped through red.
	net := roadnet.NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	light := &lights.Intersection{ID: 0, Ctrl: lights.Static{S: lights.Schedule{Cycle: 200, Red: 150, Offset: 0}}}
	a := net.AddNode(geo.XY{X: 0, Y: 0}, nil)
	b := net.AddNode(geo.XY{X: 0, Y: 600}, light) // northbound approach, NS
	c := net.AddNode(geo.XY{X: 0, Y: 1200}, nil)
	if _, err := net.AddSegment(a, b, "in", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(b, c, "out", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(c, a, "back", 10); err != nil {
		t.Fatal(err) // gives the router an escape so trips always exist
	}
	if _, err := net.AddSegment(b, a, "in-rev", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(c, b, "out-rev", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(a, c, "back-rev", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 10
	cfg.DwellProb = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NS approach shows red during [0, 150): expect a queue to form at b.
	s.RunUntil(140)
	if s.QueueLength(b, lights.NorthSouth) == 0 && s.QueueLength(b, lights.EastWest) == 0 {
		t.Fatal("no queue formed at red light")
	}
}

func TestQueueDischargesOnGreen(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 150 })
	net := s.cfg.Net
	// Run long enough to see queues form and fully clear somewhere.
	sawQueue := false
	for i := 0; i < 2400; i++ {
		s.Step()
		for _, nd := range net.SignalisedNodes() {
			if s.QueueLength(nd.ID, lights.NorthSouth) > 0 {
				sawQueue = true
			}
		}
		if sawQueue {
			break
		}
	}
	if !sawQueue {
		t.Fatal("no queue ever formed")
	}
	// After green, queues eventually drain; track one queue to zero.
	drained := false
	for i := 0; i < 4000 && !drained; i++ {
		s.Step()
		drained = true
		for _, nd := range net.SignalisedNodes() {
			if s.QueueLength(nd.ID, lights.NorthSouth) > 5 {
				drained = false
			}
		}
	}
	if !drained {
		t.Fatal("queues never drained below threshold")
	}
}

func TestStoppedSharePlausible(t *testing.T) {
	// Fig. 2(c): a substantial share of taxis are stationary at any
	// moment (red waits + dwells). Sanity-check the simulator produces a
	// mid-range share, not 0% or 100%.
	s := testSim(t, func(c *Config) { c.NumTaxis = 200 })
	s.RunUntil(600) // warm-up
	stopped, total := 0, 0
	for i := 0; i < 600; i++ {
		s.Step()
		for _, st := range s.States() {
			total++
			if st.Stopped {
				stopped++
			}
		}
	}
	share := float64(stopped) / float64(total)
	if share < 0.05 || share > 0.9 {
		t.Fatalf("stopped share = %.3f, implausible", share)
	}
}

func TestOccupancyToggles(t *testing.T) {
	s := testSim(t, func(c *Config) { c.DwellProb = 1; c.DwellMin = 5; c.DwellMax = 10 })
	occupancyChanged := make(map[int]bool)
	prev := make(map[int]bool)
	for _, st := range s.States() {
		prev[st.ID] = st.Occupied
	}
	for i := 0; i < 3600; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.Occupied != prev[st.ID] {
				occupancyChanged[st.ID] = true
				prev[st.ID] = st.Occupied
			}
		}
	}
	if len(occupancyChanged) < s.NumVehicles()/2 {
		t.Fatalf("only %d/%d taxis ever changed occupancy", len(occupancyChanged), s.NumVehicles())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []State {
		s := testSim(t, nil)
		s.RunUntil(500)
		return s.States()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestNodeWeightsBiasTraffic(t *testing.T) {
	net := testNet(t)
	hot := roadnet.NodeID(5)
	weights := make(map[roadnet.NodeID]float64)
	for i := 0; i < net.NumNodes(); i++ {
		weights[roadnet.NodeID(i)] = 0.2
	}
	weights[hot] = 50
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 120
	cfg.NodeWeights = weights
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hotPos := net.Node(hot).Pos
	coldPos := net.Node(15).Pos
	nearHot, nearCold := 0, 0
	for i := 0; i < 1800; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.Pos.Sub(hotPos).Norm() < 500 {
				nearHot++
			}
			if st.Pos.Sub(coldPos).Norm() < 500 {
				nearCold++
			}
		}
	}
	if nearHot <= nearCold*2 {
		t.Fatalf("hot node not hot: near-hot %d vs near-cold %d", nearHot, nearCold)
	}
}

func TestStopDurationsReflectRedLight(t *testing.T) {
	// The key property the red-light identifier relies on: observed stop
	// durations in front of a light cluster below the red duration.
	net := testNet(t)
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 150
	cfg.DwellProb = 0 // isolate signal stops
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopStart := make(map[int]float64)
	var durations []float64
	for i := 0; i < 3600; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.Stopped {
				if _, ok := stopStart[st.ID]; !ok {
					stopStart[st.ID] = s.Now()
				}
			} else if t0, ok := stopStart[st.ID]; ok {
				durations = append(durations, s.Now()-t0)
				delete(stopStart, st.ID)
			}
		}
	}
	if len(durations) < 50 {
		t.Fatalf("too few stop events: %d", len(durations))
	}
	// Max static red in the default grid is bounded by CycleMax; with
	// queue discharge delays a stop can exceed the red itself but must
	// stay below ~2.5 cycles.
	maxDur := 0.0
	for _, d := range durations {
		if d > maxDur {
			maxDur = d
		}
	}
	if maxDur > 2.5*160 {
		t.Fatalf("implausible stop duration %v s", maxDur)
	}
}

func TestRunUntilPastTimeIsNoop(t *testing.T) {
	s := testSim(t, nil)
	s.RunUntil(10)
	now := s.Now()
	s.RunUntil(5)
	if s.Now() != now {
		t.Fatal("RunUntil went backwards")
	}
}

func TestQueuePositionsWithinSegment(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 250 })
	for i := 0; i < 1500; i++ {
		s.Step()
	}
	for _, st := range s.States() {
		seg := s.cfg.Net.Segment(st.Segment)
		// Position must lie on the segment geometry.
		d := seg.Geom().DistanceTo(st.Pos)
		if d > 1e-6 {
			t.Fatalf("taxi %d off its segment by %v m", st.ID, d)
		}
	}
}

func TestHeadingMatchesSegment(t *testing.T) {
	s := testSim(t, nil)
	s.RunUntil(100)
	for _, st := range s.States() {
		seg := s.cfg.Net.Segment(st.Segment)
		if math.Abs(st.Heading-seg.Heading()) > 1e-9 {
			t.Fatalf("taxi %d heading %v vs segment %v", st.ID, st.Heading, seg.Heading())
		}
	}
}

func BenchmarkSimStep200Taxis(b *testing.B) {
	cfg := roadnet.DefaultGridConfig()
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := DefaultConfig(net)
	scfg.NumTaxis = 200
	s, err := New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSimStep2000Taxis(b *testing.B) {
	cfg := roadnet.DefaultGridConfig()
	cfg.Rows, cfg.Cols = 10, 10
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := DefaultConfig(net)
	scfg.NumTaxis = 2000
	s, err := New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestStatsCollection(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 150; c.DwellProb = 0 })
	s.EnableStats()
	s.RunUntil(2400)
	keys := s.StatsKeys()
	if len(keys) == 0 {
		t.Fatal("no approaches collected stats")
	}
	totalArr, totalDep := 0, 0
	for _, k := range keys {
		st := s.Stats(k.Node, k.Approach)
		totalArr += st.Arrivals
		totalDep += st.Departures
		if st.Departures > st.Arrivals {
			t.Fatalf("approach %v: more departures (%d) than arrivals (%d)",
				k, st.Departures, st.Arrivals)
		}
		if st.Departures > 0 && (st.MeanWait() <= 0 || st.MeanWait() > 2.5*160) {
			t.Fatalf("approach %v: implausible mean wait %v", k, st.MeanWait())
		}
		if st.MaxQueue < 1 {
			t.Fatalf("approach %v: max queue %d", k, st.MaxQueue)
		}
	}
	if totalDep == 0 || totalArr == 0 {
		t.Fatalf("no traffic recorded: arr=%d dep=%d", totalArr, totalDep)
	}
	// Stats disabled: zero values.
	s2 := testSim(t, nil)
	s2.RunUntil(60)
	if got := s2.Stats(0, lights.NorthSouth); got != (ApproachStats{}) {
		t.Fatalf("disabled stats = %+v", got)
	}
	if s2.StatsKeys() != nil {
		t.Fatal("disabled StatsKeys != nil")
	}
}

func TestStatsMeanWaitMatchesExpectedWaitShape(t *testing.T) {
	// At low arrival rates, the observed mean queue wait conditioned on
	// joining the queue approximates red/2 + small discharge delay —
	// the conditional counterpart of navigation.ExpectedWait. Verify the
	// aggregate sits in a physically sensible band.
	s := testSim(t, func(c *Config) { c.NumTaxis = 100; c.DwellProb = 0 })
	s.EnableStats()
	s.RunUntil(3600)
	var waits []float64
	for _, k := range keysOf(s) {
		st := s.Stats(k.Node, k.Approach)
		if st.Departures >= 10 {
			truth := s.cfg.Net.Node(k.Node).Light.ScheduleFor(k.Approach, 1800)
			// conditional mean wait ~ red/2 (+ discharge); allow wide band.
			if st.MeanWait() < truth.Red*0.2 || st.MeanWait() > truth.Red*1.6 {
				t.Fatalf("approach %v: mean wait %v vs red %v", k, st.MeanWait(), truth.Red)
			}
			waits = append(waits, st.MeanWait())
		}
	}
	if len(waits) < 5 {
		t.Fatalf("only %d approaches with enough departures", len(waits))
	}
}

func keysOf(s *Simulator) []struct {
	Node     roadnet.NodeID
	Approach lights.Approach
} {
	return s.StatsKeys()
}

func TestBackgroundTrafficLengthensQueues(t *testing.T) {
	run := func(rate float64) int {
		s := testSim(t, func(c *Config) {
			c.NumTaxis = 80
			c.DwellProb = 0
			c.BackgroundRate = rate
		})
		maxQ := 0
		for i := 0; i < 1800; i++ {
			s.Step()
			for _, nd := range s.cfg.Net.SignalisedNodes() {
				for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
					if q := s.QueueLength(nd.ID, app); q > maxQ {
						maxQ = q
					}
				}
			}
		}
		return maxQ
	}
	without := run(0)
	with := run(0.25)
	if with <= without {
		t.Fatalf("background traffic did not deepen queues: %d vs %d", with, without)
	}
}

func TestBackgroundTrafficDoesNotPerturbTaxis(t *testing.T) {
	// Background arrivals draw from their own rng; with rate 0 the taxi
	// stream must be bit-identical to a simulator without the feature.
	a := testSim(t, func(c *Config) { c.BackgroundRate = 0 })
	b := testSim(t, nil)
	a.RunUntil(600)
	b.RunUntil(600)
	sa, sb := a.States(), b.States()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("state %d differs with BackgroundRate=0", i)
		}
	}
}

func TestBackgroundTrafficValidation(t *testing.T) {
	cfg := DefaultConfig(testNet(t))
	cfg.BackgroundRate = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative background rate accepted")
	}
	cfg.BackgroundRate = 5
	if _, err := New(cfg); err == nil {
		t.Fatal("absurd background rate accepted")
	}
}

func TestBackgroundTrafficDeterministic(t *testing.T) {
	run := func() []State {
		s := testSim(t, func(c *Config) { c.BackgroundRate = 0.2 })
		s.RunUntil(400)
		return s.States()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("background sim not deterministic at state %d", i)
		}
	}
}

func TestVehicleStatsAccounting(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 40 })
	const horizon = 1800.0
	s.RunUntil(horizon)
	fleet := s.FleetStats()
	if fleet.Trips == 0 {
		t.Fatal("no trips completed")
	}
	if fleet.Distance <= 0 {
		t.Fatal("no distance driven")
	}
	// Time buckets partition the horizon for each taxi.
	for id := 0; id < s.NumVehicles(); id++ {
		st := s.VehicleStats(id)
		total := st.DriveTime + st.QueueTime + st.DwellTime
		if math.Abs(total-horizon) > 1.5 {
			t.Fatalf("taxi %d time buckets sum to %v, want %v", id, total, horizon)
		}
		// Odometer consistency: distance <= drive time x speed limit.
		if st.Distance > st.DriveTime*13.9+1 {
			t.Fatalf("taxi %d drove %v m in %v s of driving", id, st.Distance, st.DriveTime)
		}
	}
	if s.VehicleStats(-1) != (VehicleStats{}) || s.VehicleStats(9999) != (VehicleStats{}) {
		t.Fatal("out-of-range VehicleStats not zero")
	}
}

func TestFleetStatsMeanSpeedPlausible(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 60 })
	s.RunUntil(1800)
	fleet := s.FleetStats()
	meanSpeed := fleet.Distance / (fleet.DriveTime + fleet.QueueTime + fleet.DwellTime)
	// Urban mean including stops: well below the 13.9 m/s limit, above
	// walking pace.
	if meanSpeed < 2 || meanSpeed > 13 {
		t.Fatalf("fleet mean speed %v m/s implausible", meanSpeed)
	}
}

// TestCachedSegmentAndSetbackConsistent: after every tick each taxi's
// cached segment and queue are the ones its route and position name, and
// each queue's setback is the one its length gives — in a world with
// background vehicles in the queues and every light switching plans
// mid-run.
func TestCachedSegmentAndSetbackConsistent(t *testing.T) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 4, 5
	gcfg.DynamicShare = 0
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range net.SignalisedNodes() {
		a := nd.Light.Ctrl.ScheduleAt(0)
		b := lights.Schedule{Cycle: float64(int(a.Cycle * 1.5)), Red: float64(int(a.Red * 1.5)), Offset: a.Offset + 13}
		dyn, err := lights.NewDynamic([]lights.PlanEntry{
			{DaySecond: 0, S: a},
			{DaySecond: float64(300 + 7*i), S: b},
			{DaySecond: float64(900 + 11*i), S: a},
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.Light.Ctrl = dyn
	}
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 150
	cfg.Seed = 23
	cfg.BackgroundRate = 0.1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for s.now < 1500 {
		s.Step()
		for _, v := range s.vehicles {
			seg := net.Segment(v.route[v.segIdx])
			if v.seg != seg || v.qi != queueIndex(seg.To, seg.Approach()) {
				t.Fatalf("t=%v taxi %d: cached segment %d and queue %d, route says %d and %d",
					s.now, v.id, v.seg.ID, v.qi, seg.ID, queueIndex(seg.To, seg.Approach()))
			}
		}
		for i := range s.queues {
			q := &s.queues[i]
			if want := float64(len(q.vehicles)/cfg.Lanes) * cfg.CarSpacing; math.Float64bits(q.setback) != math.Float64bits(want) {
				t.Fatalf("t=%v queue %d: setback %v with %d vehicles, want %v", s.now, i, q.setback, len(q.vehicles), want)
			}
			deepest = max(deepest, len(q.vehicles))
		}
	}
	if st := s.FleetStats(); deepest < 2*cfg.Lanes || st.Trips == 0 || st.QueueTime == 0 {
		t.Fatalf("the run never stacked a queue two ranks deep (deepest %d) or finished no trip: %+v", deepest, st)
	}
}
